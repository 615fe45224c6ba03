package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// hotTensorFuncs are the internal/tensor functions that sit on the
// steady-state inference path beyond the Into-suffix convention: the
// blocked matmul core, the im2col packers (float and quantized), the
// shared fan-out and the task body it runs on workers and caller alike,
// the packed int8 GEMM core, and the fused transformer row kernels
// (attention lanes, the shared softmax row loop).
var hotTensorFuncs = []string{
	"matMulRange",
	"im2col",
	"fanOut",
	"run",
	"qMatMulPacked",
	"im2colQ",
	"store4q",
	"attentionRows",
	"softmaxRows",
}

// hotFiles are the files whose entire contents are hot, by package:
// internal/model's compiled execution plan and the transformer-operator
// dispatch it shares with the interpreter (the interpreter itself,
// forward.go, is the oracle and may allocate); internal/broker's TCP
// wire protocol frame codec, which every produced and fetched record
// crosses twice, and internal/grpcish's framing under it.
var hotFiles = map[string][]string{
	"internal/model":   {"plan.go", "attnexec.go"},
	"internal/broker":  {"wire.go"},
	"internal/grpcish": {"frame.go"},
}

// newHotPathAlloc flags heap allocations on the inference hot path:
// calls to tensor.New and make([]T, ...) for the inference datatypes
// (float32 activations, int8 quantized values, int32 accumulators,
// uint64 packed words) inside internal/tensor's Into-variant kernels
// (plus the helpers above) and anywhere in internal/model's plan.go and
// attnexec.go, and make([]byte, ...), make([]Record, ...) and
// make([]FetchRequest, ...) anywhere in internal/broker's wire.go, whose
// encoders append into connection scratch and whose decoders slice the
// frame they are given, and in internal/grpcish's frame.go, the framing
// under it. The zero-allocation contract
// (docs/PERFORMANCE.md) is held by AllocsPerRun tests at the package
// level; this analyzer attributes a regression to its line before the
// tests can only say "some step allocated". Deliberate cold-path
// allocations — plan compilation, per-state scratch construction —
// carry a //lint:allow hotpathalloc annotation stating why. A list
// entry that names no function or file of its package is reported too:
// a renamed kernel or file would otherwise drop out of the check
// without a word.
func newHotPathAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotpathalloc",
		Doc:  "hot paths (tensor Into-kernels, the model plan, the broker wire codec) must not allocate; annotate deliberate cold-path allocations",
	}
	a.Run = func(pass *Pass) {
		rel := pass.Pkg.ModRel
		declared := make(map[string]bool) // function names in tensor, file names elsewhere
		var list string
		var listed []string
		switch files, ok := hotFiles[rel]; {
		case rel == "internal/tensor":
			list, listed = "hotTensorFuncs", hotTensorFuncs
			pass.eachFile(func(f *ast.File) {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					declared[fd.Name.Name] = true
					if hotTensorFunc(fd.Name.Name) {
						reportHotAllocs(pass, fd.Body, "tensor kernel "+fd.Name.Name, hotSliceElems)
					}
				}
			})
		case ok:
			list, listed = "hotFiles", files
			elems := hotWireElems
			if rel == "internal/model" {
				elems = hotSliceElems
			}
			pass.eachFile(func(f *ast.File) {
				name := filepath.Base(pass.Module.Fset.Position(f.Pos()).Filename)
				declared[name] = true
				if slices.Contains(files, name) {
					reportHotAllocs(pass, f, name, elems)
				}
			})
		}
		for _, name := range listed {
			if !declared[name] {
				pass.report(pass.Pkg.Files[0].Name.Pos(), "%s names %s, which %s does not declare: nothing under that name is checked for allocations", list, name, rel)
			}
		}
	}
	return a
}

// hotTensorFunc reports whether a tensor function name is on the hot
// path: the Into-variant naming convention or the helper allow-list.
func hotTensorFunc(name string) bool {
	return strings.HasSuffix(name, "Into") || slices.Contains(hotTensorFuncs, name)
}

// reportHotAllocs walks one hot region and reports the banned
// allocation forms; elems names the slice element types whose make is
// banned there.
func reportHotAllocs(pass *Pass, root ast.Node, where string, elems map[string]bool) {
	info := pass.Pkg.TypesInfo
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if elt, ok := hotSliceMake(info, call, elems); fun.Name == "make" && ok {
				pass.report(call.Pos(), "make([]%s, ...) in %s: hot paths take caller scratch or arena buffers (docs/PERFORMANCE.md), or annotate //lint:allow hotpathalloc <reason>", elt, where)
			}
			if fun.Name == "New" && pass.Pkg.ModRel == "internal/tensor" && isLocalFunc(info, fun) {
				pass.report(call.Pos(), "tensor New in %s: hot kernels write into caller-provided tensors, or annotate //lint:allow hotpathalloc <reason>", where)
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name != "New" {
				return true
			}
			if ident, ok := fun.X.(*ast.Ident); ok && isTensorPkgRef(info, ident) {
				pass.report(call.Pos(), "tensor.New in %s: hot paths draw from the execution plan's arena, or annotate //lint:allow hotpathalloc <reason>", where)
			}
		}
		return true
	})
}

// hotSliceElems are the element types whose slice makes the analyzer
// bans on hot paths: the float32 activation buffers plus the quantized
// path's int8 values, int32 accumulators, and uint64 packed pair-words.
var hotSliceElems = map[string]bool{
	"float32": true,
	"int8":    true,
	"int32":   true,
	"uint64":  true,
}

// hotWireElems are the element types banned in the broker's frame
// codec and the framing under it: frame bytes, and the record and
// fetch-position slices the decoders append to.
var hotWireElems = map[string]bool{
	"byte":         true,
	"Record":       true,
	"FetchRequest": true,
}

// hotSliceMake matches the literal form make([]T, ...) for an element
// type T in elems, requiring make to be the builtin when type
// information is available. It returns the element type name.
func hotSliceMake(info *types.Info, call *ast.CallExpr, elems map[string]bool) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	if info != nil {
		if obj, ok := info.Uses[call.Fun.(*ast.Ident)]; ok {
			if _, builtin := obj.(*types.Builtin); !builtin {
				return "", false
			}
		}
	}
	at, ok := call.Args[0].(*ast.ArrayType)
	if !ok || at.Len != nil {
		return "", false
	}
	elt, ok := at.Elt.(*ast.Ident)
	if !ok || !elems[elt.Name] {
		return "", false
	}
	return elt.Name, true
}

// isLocalFunc reports whether ident resolves to a package-level function
// of the package under analysis (the tensor constructor, not a local
// shadow), defaulting to true without type information.
func isLocalFunc(info *types.Info, ident *ast.Ident) bool {
	if info == nil {
		return true
	}
	obj, ok := info.Uses[ident]
	if !ok {
		return true
	}
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Parent() == fn.Pkg().Scope()
}

// isTensorPkgRef reports whether ident is an import reference to the
// module's tensor package (alias-safe), falling back to the spelled
// package name.
func isTensorPkgRef(info *types.Info, ident *ast.Ident) bool {
	if info != nil {
		if obj, ok := info.Uses[ident]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				p := pn.Imported().Path()
				return p == "internal/tensor" || strings.HasSuffix(p, "/internal/tensor")
			}
			return false
		}
	}
	return ident.Name == "tensor"
}
