package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// hotTensorFuncs are the internal/tensor functions that sit on the
// steady-state inference path beyond the Into-suffix convention: the
// blocked matmul core, the im2col packers (float and quantized), the
// pooled fan-out, the packed int8 GEMM core, and the fused transformer
// row kernels (attention lanes, the shared softmax row loop).
var hotTensorFuncs = map[string]bool{
	"matMulRange":   true,
	"im2col":        true,
	"poolMatMul":    true,
	"qMatMulPacked": true,
	"im2colQ":       true,
	"store4q":       true,
	"attentionRows": true,
	"softmaxRows":   true,
}

// hotModelFiles are the internal/model files whose entire contents are
// hot: the compiled execution plan and the transformer-operator
// dispatch it shares with the interpreter. The interpreter itself
// (forward.go) is the oracle and may allocate.
var hotModelFiles = map[string]bool{
	"plan.go":     true,
	"attnexec.go": true,
}

// hotWireFiles are the internal/broker and internal/grpcish files whose
// entire contents are hot: the TCP wire protocol's frame codec, which
// every produced and fetched record crosses twice, and the framing under
// it.
var hotWireFiles = map[string]bool{
	"wire.go":  true,
	"frame.go": true,
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
// carry a //lint:allow hotpathalloc annotation stating why.
func newHotPathAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotpathalloc",
		Doc:  "hot paths (tensor Into-kernels, the model plan, the broker wire codec) must not allocate; annotate deliberate cold-path allocations",
	}
	a.Run = func(pass *Pass) {
		switch pass.Pkg.ModRel {
		case "internal/tensor":
			pass.eachFile(func(f *ast.File) {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil || !hotTensorFunc(fd.Name.Name) {
						continue
					}
					reportHotAllocs(pass, fd.Body, "tensor kernel "+fd.Name.Name, hotSliceElems)
				}
			})
		case "internal/model":
			reportHotFiles(pass, hotModelFiles, hotSliceElems)
		case "internal/broker", "internal/grpcish":
			reportHotFiles(pass, hotWireFiles, hotWireElems)
		}
	}
	return a
}

// reportHotFiles reports the banned allocation forms anywhere in the
// package's files named in files.
func reportHotFiles(pass *Pass, files, elems map[string]bool) {
	pass.eachFile(func(f *ast.File) {
		name := filepath.Base(pass.Module.Fset.Position(f.Pos()).Filename)
		if files[name] {
			reportHotAllocs(pass, f, name, elems)
		}
	})
}

// hotTensorFunc reports whether a tensor function name is on the hot
// path: the Into-variant naming convention or the helper allow-list.
func hotTensorFunc(name string) bool {
	return strings.HasSuffix(name, "Into") || hotTensorFuncs[name]
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
