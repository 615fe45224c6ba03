package modelfmt

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"crayfish/internal/model"
	"crayfish/internal/tensor"
)

// torchCodec stores models the way TorchScript archives do: a ZIP file
// with a JSON structure description and one raw binary entry per tensor.
// Stored (not deflated) entries keep weights bit-exact and decoding cheap,
// and the per-entry ZIP headers add a small per-tensor overhead over ONNX.
type torchCodec struct{}

func (torchCodec) Format() Format { return Torch }

// torchManifest is the model.json payload inside the archive.
type torchManifest struct {
	Producer   string       `json:"producer"`
	Name       string       `json:"name"`
	InputShape []int        `json:"input_shape"`
	OutputSize int          `json:"output_size"`
	Layers     []torchLayer `json:"layers"`
}

type torchLayer struct {
	Kind     string           `json:"kind"`
	Name     string           `json:"name"`
	Stride   int              `json:"stride,omitempty"`
	Pad      int              `json:"pad,omitempty"`
	PoolSize int              `json:"pool_size,omitempty"`
	Heads    int              `json:"heads,omitempty"`
	Eps      float32          `json:"eps,omitempty"`
	Tensors  map[string]int   `json:"tensors,omitempty"` // field name -> data entry id
	Shapes   map[string][]int `json:"shapes,omitempty"`
}

func (torchCodec) Encode(m *model.Model) ([]byte, error) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	manifest := torchManifest{
		Producer:   "crayfish-torch/1.0",
		Name:       m.Name,
		InputShape: m.InputShape,
		OutputSize: m.OutputSize,
	}
	entry := 0
	for _, l := range m.Layers {
		tl := torchLayer{
			Kind: string(l.Kind), Name: l.Name,
			Stride: l.Stride, Pad: l.Pad, PoolSize: l.PoolSize, Heads: l.Heads, Eps: l.Eps,
		}
		ts := layerTensors(l)
		for j, t := range ts {
			if t == nil {
				continue
			}
			if tl.Tensors == nil {
				tl.Tensors = map[string]int{}
				tl.Shapes = map[string][]int{}
			}
			tl.Tensors[tensorFieldNames[j]] = entry
			tl.Shapes[tensorFieldNames[j]] = t.Shape()
			w, err := zw.CreateHeader(&zip.FileHeader{
				Name:   "data/" + strconv.Itoa(entry),
				Method: zip.Store,
			})
			if err != nil {
				return nil, fmt.Errorf("modelfmt: torch entry %d: %w", entry, err)
			}
			if _, err := w.Write(tensorBytes(t)); err != nil {
				return nil, fmt.Errorf("modelfmt: torch entry %d: %w", entry, err)
			}
			entry++
		}
		manifest.Layers = append(manifest.Layers, tl)
	}
	mj, err := json.Marshal(manifest)
	if err != nil {
		return nil, err
	}
	w, err := zw.CreateHeader(&zip.FileHeader{Name: "model.json", Method: zip.Store})
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(mj); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (torchCodec) Decode(data []byte) (*model.Model, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("modelfmt: torch archive: %w", err)
	}
	files := make(map[string][]byte, len(zr.File))
	for _, f := range zr.File {
		// A stored entry is no larger than the archive; a deflated one
		// could inflate past any bound the input sets.
		if f.Method != zip.Store {
			return nil, fmt.Errorf("modelfmt: torch entry %q is compressed, not stored", f.Name)
		}
		rc, err := f.Open()
		if err != nil {
			return nil, fmt.Errorf("modelfmt: torch entry %q: %w", f.Name, err)
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("modelfmt: torch entry %q: %w", f.Name, err)
		}
		files[f.Name] = b
	}
	mj, ok := files["model.json"]
	if !ok {
		return nil, fmt.Errorf("modelfmt: torch archive missing model.json")
	}
	var manifest torchManifest
	if err := json.Unmarshal(mj, &manifest); err != nil {
		return nil, fmt.Errorf("modelfmt: torch manifest: %w", err)
	}
	if _, err := elemCount(manifest.InputShape, len(data)/4); err != nil {
		return nil, fmt.Errorf("modelfmt: torch input shape: %w", err)
	}
	m := &model.Model{
		Name:       manifest.Name,
		InputShape: manifest.InputShape,
		OutputSize: manifest.OutputSize,
	}
	for i, tl := range manifest.Layers {
		l := &model.Layer{
			Kind: model.LayerKind(tl.Kind), Name: tl.Name,
			Stride: tl.Stride, Pad: tl.Pad, PoolSize: tl.PoolSize, Heads: tl.Heads, Eps: tl.Eps,
		}
		ts := layerTensors(l)
		for j, field := range tensorFieldNames {
			id, ok := tl.Tensors[field]
			if !ok {
				continue
			}
			shape, ok := tl.Shapes[field]
			if !ok {
				return nil, fmt.Errorf("modelfmt: torch layer %d field %s: missing shape", i, field)
			}
			raw, ok := files["data/"+strconv.Itoa(id)]
			if !ok {
				return nil, fmt.Errorf("modelfmt: torch layer %d field %s: missing data entry %d", i, field, id)
			}
			t, err := decodeRawTensor(raw, shape)
			if err != nil {
				return nil, fmt.Errorf("modelfmt: torch layer %d field %s: %w", i, field, err)
			}
			ts[j] = t
		}
		if err := setLayerTensors(l, ts); err != nil {
			return nil, err
		}
		m.Layers = append(m.Layers, l)
	}
	return m, nil
}

// decodeRawTensor rebuilds a tensor from raw little-endian float32 bytes.
func decodeRawTensor(raw []byte, shape []int) (*tensor.Tensor, error) {
	n, err := elemCount(shape, len(raw)/4)
	if err != nil {
		return nil, err
	}
	if len(raw) != 4*n {
		return nil, fmt.Errorf("payload %d bytes, shape %v wants %d", len(raw), shape, 4*n)
	}
	r := newBinReader(raw)
	data := make([]float32, n)
	for i := range data {
		v, err := r.f32()
		if err != nil {
			return nil, err
		}
		data[i] = v
	}
	return tensor.FromSlice(data, shape...)
}
