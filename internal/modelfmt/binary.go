package modelfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"crayfish/internal/model"
	"crayfish/internal/tensor"
)

// maxDecodeDim bounds per-dimension sizes while decoding so corrupt input
// cannot trigger huge allocations.
const maxDecodeDim = 1 << 24

// elemCount is the element count of a decoded shape. Every dimension
// must lie in [0, maxDecodeDim], and the count may not exceed limit, the
// float32s the input has left to hold it; the check runs before each
// multiplication, so the count cannot overflow.
func elemCount(shape []int, limit int) (int, error) {
	n := 1
	for _, d := range shape {
		if d < 0 || d > maxDecodeDim {
			return 0, fmt.Errorf("modelfmt: implausible dimension %d", d)
		}
		if d != 0 && n > limit/d {
			return 0, fmt.Errorf("modelfmt: shape %v holds more than the %d floats left in the input", shape, limit)
		}
		n *= d
	}
	return n, nil
}

// binWriter serialises primitives in little-endian order.
type binWriter struct {
	buf bytes.Buffer
}

func (w *binWriter) u32(v uint32)  { _ = binary.Write(&w.buf, binary.LittleEndian, v) }
func (w *binWriter) i32(v int32)   { _ = binary.Write(&w.buf, binary.LittleEndian, v) }
func (w *binWriter) f32(v float32) { _ = binary.Write(&w.buf, binary.LittleEndian, v) }

func (w *binWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf.WriteString(s)
}

func (w *binWriter) raw(b []byte) { w.buf.Write(b) }

// tensorBytes renders a tensor's payload as raw little-endian float32.
func tensorBytes(t *tensor.Tensor) []byte {
	out := make([]byte, 4*t.Len())
	for i, v := range t.Data() {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// tensorField writes rank, dims, then raw data. A nil tensor is rank -1.
func (w *binWriter) tensorField(t *tensor.Tensor) {
	if t == nil {
		w.i32(-1)
		return
	}
	w.i32(int32(t.Rank()))
	for _, d := range t.Shape() {
		w.u32(uint32(d))
	}
	w.raw(tensorBytes(t))
}

func (w *binWriter) bytes() []byte { return w.buf.Bytes() }

// binReader deserialises primitives written by binWriter.
type binReader struct {
	r *bytes.Reader
}

func newBinReader(data []byte) *binReader {
	return &binReader{r: bytes.NewReader(data)}
}

func (r *binReader) u32() (uint32, error) {
	var v uint32
	err := binary.Read(r.r, binary.LittleEndian, &v)
	return v, err
}

func (r *binReader) i32() (int32, error) {
	var v int32
	err := binary.Read(r.r, binary.LittleEndian, &v)
	return v, err
}

func (r *binReader) f32() (float32, error) {
	var v float32
	err := binary.Read(r.r, binary.LittleEndian, &v)
	return v, err
}

func (r *binReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int64(n) > int64(r.r.Len()) {
		return "", fmt.Errorf("modelfmt: string length %d exceeds remaining input", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// shape reads rank dimensions; elemCount bounds them.
func (r *binReader) shape(rank int) ([]int, error) {
	shape := make([]int, rank)
	for i := range shape {
		d, err := r.u32()
		if err != nil {
			return nil, err
		}
		shape[i] = int(d)
	}
	return shape, nil
}

func (r *binReader) tensorField() (*tensor.Tensor, error) {
	rank, err := r.i32()
	if err != nil {
		return nil, err
	}
	if rank == -1 {
		return nil, nil
	}
	if rank < 0 || rank > 8 {
		return nil, fmt.Errorf("modelfmt: implausible tensor rank %d", rank)
	}
	shape, err := r.shape(int(rank))
	if err != nil {
		return nil, err
	}
	n, err := elemCount(shape, r.r.Len()/4)
	if err != nil {
		return nil, err
	}
	data := make([]float32, n)
	raw := make([]byte, 4*n)
	if _, err := io.ReadFull(r.r, raw); err != nil {
		return nil, err
	}
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return tensor.FromSlice(data, shape...)
}

// layerTensors lists a layer's tensor fields in a stable order along with
// accessors, so formats can serialise them uniformly.
func layerTensors(l *model.Layer) []*tensor.Tensor {
	return []*tensor.Tensor{l.W, l.B, l.Gamma, l.Beta, l.Mean, l.Variance}
}

func setLayerTensors(l *model.Layer, ts []*tensor.Tensor) error {
	if len(ts) != 6 {
		return fmt.Errorf("modelfmt: layer wants 6 tensor slots, got %d", len(ts))
	}
	l.W, l.B, l.Gamma, l.Beta, l.Mean, l.Variance = ts[0], ts[1], ts[2], ts[3], ts[4], ts[5]
	return nil
}

// tensorFieldNames matches layerTensors order; used by the named formats.
var tensorFieldNames = []string{"W", "B", "gamma", "beta", "mean", "variance"}

// writeLayerCommon serialises a layer's scalar attributes.
func (w *binWriter) writeLayerCommon(l *model.Layer) {
	w.str(string(l.Kind))
	w.str(l.Name)
	w.i32(int32(l.Stride))
	w.i32(int32(l.Pad))
	w.i32(int32(l.PoolSize))
	w.i32(int32(l.Heads))
	w.f32(l.Eps)
}

func (r *binReader) readLayerCommon() (*model.Layer, error) {
	kind, err := r.str()
	if err != nil {
		return nil, err
	}
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	stride, err := r.i32()
	if err != nil {
		return nil, err
	}
	pad, err := r.i32()
	if err != nil {
		return nil, err
	}
	pool, err := r.i32()
	if err != nil {
		return nil, err
	}
	heads, err := r.i32()
	if err != nil {
		return nil, err
	}
	eps, err := r.f32()
	if err != nil {
		return nil, err
	}
	return &model.Layer{
		Kind: model.LayerKind(kind), Name: name,
		Stride: int(stride), Pad: int(pad), PoolSize: int(pool), Heads: int(heads), Eps: eps,
	}, nil
}

// writeModelHeader serialises model metadata.
func (w *binWriter) writeModelHeader(m *model.Model) {
	w.str(m.Name)
	w.i32(int32(len(m.InputShape)))
	for _, d := range m.InputShape {
		w.u32(uint32(d))
	}
	w.i32(int32(m.OutputSize))
	w.i32(int32(len(m.Layers)))
}

func (r *binReader) readModelHeader() (*model.Model, int, error) {
	name, err := r.str()
	if err != nil {
		return nil, 0, err
	}
	rank, err := r.i32()
	if err != nil {
		return nil, 0, err
	}
	if rank < 0 || rank > 8 {
		return nil, 0, fmt.Errorf("modelfmt: implausible input rank %d", rank)
	}
	shape, err := r.shape(int(rank))
	if err != nil {
		return nil, 0, err
	}
	if _, err := elemCount(shape, r.r.Len()/4); err != nil {
		return nil, 0, err
	}
	out, err := r.i32()
	if err != nil {
		return nil, 0, err
	}
	nLayers, err := r.i32()
	if err != nil {
		return nil, 0, err
	}
	if nLayers < 0 || nLayers > 1<<16 {
		return nil, 0, fmt.Errorf("modelfmt: implausible layer count %d", nLayers)
	}
	return &model.Model{Name: name, InputShape: shape, OutputSize: int(out)}, int(nLayers), nil
}
