package modelfmt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"crayfish/internal/model"
)

// roundTripModel encodes and decodes m in every format, asserting weight
// bit-exactness and structural equality.
func roundTripModel(t *testing.T, m *model.Model) {
	t.Helper()
	in, err := m.BatchInput(randInput(m), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Forward(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Formats() {
		data, err := Encode(f, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", f, err)
		}
		got, err := Decode(f, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", f, err)
		}
		if got.Name != m.Name || got.OutputSize != m.OutputSize || len(got.Layers) != len(m.Layers) {
			t.Fatalf("%s: metadata mismatch: %q/%d/%d layers", f, got.Name, got.OutputSize, len(got.Layers))
		}
		for i, l := range m.Layers {
			g := got.Layers[i]
			if g.Kind != l.Kind || g.Name != l.Name || g.Stride != l.Stride || g.Pad != l.Pad || g.PoolSize != l.PoolSize || g.Heads != l.Heads || g.Eps != l.Eps {
				t.Fatalf("%s: layer %d attrs differ", f, i)
			}
			want := layerTensors(l)
			have := layerTensors(g)
			for j := range want {
				switch {
				case want[j] == nil && have[j] == nil:
				case want[j] == nil || have[j] == nil:
					t.Fatalf("%s: layer %d tensor %d nil mismatch", f, i, j)
				case !want[j].AllClose(have[j], 0):
					t.Fatalf("%s: layer %d tensor %d not bit-exact", f, i, j)
				}
			}
		}
		out, err := got.Forward(in.Clone())
		if err != nil {
			t.Fatalf("%s: decoded forward: %v", f, err)
		}
		if !out.AllClose(want, 0) {
			t.Fatalf("%s: decoded model scores differently", f)
		}
	}
}

func randInput(m *model.Model) []float32 {
	r := rand.New(rand.NewSource(17))
	data := make([]float32, m.InputLen())
	for i := range data {
		data[i] = r.Float32()
	}
	return data
}

func TestRoundTripFFNN(t *testing.T) {
	roundTripModel(t, model.NewFFNN(1))
}

func TestRoundTripResNet(t *testing.T) {
	cfg := model.BenchResNetConfig(1)
	cfg.InputSize = 32
	cfg.Blocks = [4]int{1, 1, 1, 1}
	roundTripModel(t, model.NewResNet(cfg))
}

func TestRoundTripTransformer(t *testing.T) {
	// The transformer exercises the attention/layernorm/gelu kinds and
	// the Heads attribute in every format.
	roundTripModel(t, model.NewTransformer(model.TransformerConfig{
		Seed: 1, SeqLen: 4, ModelDim: 8, Heads: 2, FFNDim: 16, Blocks: 1, Classes: 3,
	}))
}

func TestTable2SizeShape(t *testing.T) {
	// Table 2: for the small FFNN, ONNX is the smallest, H5 adds a
	// moderate overhead, and SavedModel is ≈4× ONNX. For large models
	// all formats converge to the raw weight size.
	ffnn := model.NewFFNN(1)
	sizes := map[Format]int{}
	for _, f := range Formats() {
		data, err := Encode(f, ffnn)
		if err != nil {
			t.Fatal(err)
		}
		sizes[f] = len(data)
	}
	raw := 4 * ffnn.ParamCount()
	if sizes[ONNX] < raw || sizes[ONNX] > raw+raw/10 {
		t.Fatalf("ONNX size %d not within 10%% above raw %d", sizes[ONNX], raw)
	}
	if sizes[Torch] <= sizes[ONNX] {
		t.Fatalf("Torch (%d) should exceed ONNX (%d)", sizes[Torch], sizes[ONNX])
	}
	if sizes[H5] <= sizes[Torch] {
		t.Fatalf("H5 (%d) should exceed Torch (%d)", sizes[H5], sizes[Torch])
	}
	ratio := float64(sizes[SavedModel]) / float64(sizes[ONNX])
	if ratio < 3 || ratio > 6 {
		t.Fatalf("SavedModel/ONNX ratio = %.2f, want ≈4.5 (Table 2: 508KB/113KB)", ratio)
	}

	// A larger model: format overheads must become negligible.
	big := model.NewFFNNSized(1, 784, []int{1024, 1024}, 100)
	bigRaw := 4 * big.ParamCount()
	for _, f := range Formats() {
		data, err := Encode(f, big)
		if err != nil {
			t.Fatal(err)
		}
		over := float64(len(data)-bigRaw) / float64(bigRaw)
		if over < 0 || over > 0.15 {
			t.Fatalf("%s: big-model overhead %.2f%%, want < 15%%", f, 100*over)
		}
	}
}

func TestSniff(t *testing.T) {
	m := model.NewFFNNSized(1, 8, []int{4}, 2)
	for _, f := range Formats() {
		data, err := Encode(f, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Sniff(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if got != f {
			t.Fatalf("Sniff = %s, want %s", got, f)
		}
	}
	if _, err := Sniff([]byte("garbage")); err == nil {
		t.Fatal("Sniff accepted garbage")
	}
	if _, err := Sniff(nil); err == nil {
		t.Fatal("Sniff accepted empty input")
	}
}

func TestLookupUnknownFormat(t *testing.T) {
	if _, err := lookup("bogus"); err == nil {
		t.Fatal("Lookup accepted unknown format")
	}
	if _, err := Encode("bogus", model.NewFFNN(1)); err == nil {
		t.Fatal("Encode accepted unknown format")
	}
	if _, err := Decode("bogus", nil); err == nil {
		t.Fatal("Decode accepted unknown format")
	}
}

func TestEncodeRejectsInvalidModel(t *testing.T) {
	bad := &model.Model{Name: "bad", InputShape: []int{4}}
	for _, f := range Formats() {
		if _, err := Encode(f, bad); err == nil {
			t.Fatalf("%s: Encode accepted invalid model", f)
		}
	}
}

func TestDecodeRejectsWrongMagic(t *testing.T) {
	m := model.NewFFNNSized(1, 8, []int{4}, 2)
	onnxData, err := Encode(ONNX, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{SavedModel, H5} {
		if _, err := Decode(f, onnxData); err == nil {
			t.Fatalf("%s: decoded ONNX bytes", f)
		}
	}
	if _, err := Decode(Torch, onnxData); err == nil {
		t.Fatal("torch: decoded ONNX bytes")
	}
}

func TestDecodeTruncatedProperty(t *testing.T) {
	// Truncating an encoded model at any prefix length must yield an
	// error, never a panic or a silently-wrong model.
	m := model.NewFFNNSized(1, 16, []int{8}, 4)
	for _, f := range Formats() {
		data, err := Encode(f, m)
		if err != nil {
			t.Fatal(err)
		}
		check := func(cut uint16) bool {
			n := int(cut) % len(data)
			_, err := Decode(f, data[:n])
			return err != nil
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: truncated decode: %v", f, err)
		}
	}
}

func TestDecodeCorruptHeaderFields(t *testing.T) {
	m := model.NewFFNNSized(1, 16, []int{8}, 4)
	data, err := Encode(ONNX, m)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the layer count (bytes after magic+version+name+shape
	// fields): flipping high bits should produce implausible counts.
	corrupt := append([]byte(nil), data...)
	for i := len(onnxMagic); i < len(onnxMagic)+64 && i < len(corrupt); i++ {
		corrupt[i] ^= 0xFF
	}
	if _, err := Decode(ONNX, corrupt); err == nil {
		t.Fatal("Decode accepted corrupted header")
	}
}

// overflowField is a tensor field whose shape, 2^24 × 2^24 × 2^16, holds
// 2^64 elements: a count that wraps to zero in int64.
func overflowField() []byte {
	w := &binWriter{}
	w.i32(3)
	for _, d := range []uint32{1 << 24, 1 << 24, 1 << 16} {
		w.u32(d)
	}
	return w.bytes()
}

// overflowONNX is a one-layer ONNX container whose first tensor field is
// overflowField.
func overflowONNX() []byte {
	w := &binWriter{}
	w.raw([]byte(onnxMagic))
	w.u32(1)
	w.writeModelHeader(&model.Model{Name: "o", InputShape: []int{1}, OutputSize: 1, Layers: []*model.Layer{{}}})
	w.writeLayerCommon(&model.Layer{Kind: "dense", Name: "d"})
	w.raw(overflowField())
	return w.bytes()
}

// TestDecodersRefuseOverflowingShapes: every decoder site that multiplies
// a decoded shape refuses one whose element count overflows, instead of
// building a tensor that claims 2^64 elements over none.
func TestDecodersRefuseOverflowingShapes(t *testing.T) {
	huge := []int{1 << 24, 1 << 24, 1 << 16}
	header := &binWriter{}
	header.str("m")
	header.i32(3)
	for _, d := range huge {
		header.u32(uint32(d))
	}
	header.i32(1)
	header.i32(1)
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"binary tensor field", func() error {
			_, err := newBinReader(overflowField()).tensorField()
			return err
		}},
		{"binary model header", func() error {
			_, _, err := newBinReader(header.bytes()).readModelHeader()
			return err
		}},
		{"torch raw tensor", func() error {
			_, err := decodeRawTensor(nil, huge)
			return err
		}},
		{"onnx container", func() error {
			_, err := Decode(ONNX, overflowONNX())
			return err
		}},
	} {
		if err := tc.decode(); err == nil {
			t.Errorf("%s: a shape of 2^64 elements decoded", tc.name)
		}
	}
}

// FuzzModelDecode holds the four decoders to the decoder contract: no
// input panics one; a decoded model's shapes hold no more float32s than
// the input has bytes for; and whatever decodes re-encodes to bytes that
// decode to the same model, bit for bit.
func FuzzModelDecode(f *testing.F) {
	m := model.NewFFNNSized(1, 4, []int{3}, 2)
	for i, format := range Formats() {
		data, err := Encode(format, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), data)
	}
	f.Add(uint8(0), overflowONNX())
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		formats := Formats()
		format := formats[int(which)%len(formats)]
		got, err := Decode(format, data)
		if err != nil {
			return
		}
		floats := got.InputLen()
		for _, l := range got.Layers {
			for _, ts := range layerTensors(l) {
				if ts != nil {
					floats += ts.Len()
				}
			}
		}
		if 4*floats > len(data) {
			t.Fatalf("%s: %d input bytes decoded into shapes of %d float32s", format, len(data), floats)
		}
		again, err := Encode(format, got)
		if err != nil {
			t.Fatalf("%s: a decoded model does not re-encode: %v", format, err)
		}
		back, err := Decode(format, again)
		if err != nil {
			t.Fatalf("%s: a re-encoded model does not decode: %v", format, err)
		}
		if diff := modelDiff(got, back); diff != "" {
			t.Fatalf("%s: re-encoded model differs: %s", format, diff)
		}
	})
}

// modelDiff names the first difference between two models, comparing
// every float bit for bit (NaN payloads included), or returns "".
func modelDiff(a, b *model.Model) string {
	if a.Name != b.Name || !slices.Equal(a.InputShape, b.InputShape) || a.OutputSize != b.OutputSize || len(a.Layers) != len(b.Layers) {
		return "metadata"
	}
	for i, la := range a.Layers {
		lb := b.Layers[i]
		if la.Kind != lb.Kind || la.Name != lb.Name || la.Stride != lb.Stride || la.Pad != lb.Pad ||
			la.PoolSize != lb.PoolSize || la.Heads != lb.Heads || math.Float32bits(la.Eps) != math.Float32bits(lb.Eps) {
			return fmt.Sprintf("layer %d attributes", i)
		}
		tb := layerTensors(lb)
		for j, ta := range layerTensors(la) {
			if (ta == nil) != (tb[j] == nil) {
				return fmt.Sprintf("layer %d tensor %d presence", i, j)
			}
			if ta == nil {
				continue
			}
			if !slices.Equal(ta.Shape(), tb[j].Shape()) {
				return fmt.Sprintf("layer %d tensor %d shape", i, j)
			}
			for k, v := range ta.Data() {
				if math.Float32bits(v) != math.Float32bits(tb[j].Data()[k]) {
					return fmt.Sprintf("layer %d tensor %d element %d", i, j, k)
				}
			}
		}
	}
	return ""
}

func TestFunctionLibraryIsModelIndependent(t *testing.T) {
	a := functionLibrary()
	b := functionLibrary()
	if len(a) != len(b) || string(a) != string(b) {
		t.Fatal("function library not deterministic")
	}
	if len(a) < 200_000 || len(a) > 800_000 {
		t.Fatalf("function library %d bytes, want a few hundred KB", len(a))
	}
}

func BenchmarkEncodeFFNN(b *testing.B) {
	m := model.NewFFNN(1)
	for _, f := range Formats() {
		b.Run(string(f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Encode(f, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeFFNN(b *testing.B) {
	m := model.NewFFNN(1)
	for _, f := range Formats() {
		data, err := Encode(f, m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Decode(f, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Formats returns all supported formats in a stable order.
func Formats() []Format {
	return []Format{ONNX, SavedModel, Torch, H5}
}
