// Package modelfmt implements the four model storage formats evaluated in
// the paper (Table 2): ONNX, TensorFlow SavedModel, TorchScript, and
// Keras H5. Each format is a distinct binary layout with its own size
// characteristics:
//
//   - ONNX: compact tag-length binary; smallest for small models.
//   - Torch: ZIP archive with a JSON structure file and raw tensor entries.
//   - H5: hierarchical binary with per-dataset headers and a group B-tree.
//   - SavedModel: raw variables plus a verbose JSON graph definition and a
//     function-library boilerplate section, so small models pay a large
//     fixed metadata cost (508 KB vs 113 KB for the 113 KB FFNN in the
//     paper) while large models converge to the weight size.
//
// All formats round-trip weights bit-exactly; the embedded serving
// runtimes each load their preferred format, mirroring §3.4.2.
package modelfmt

import (
	"fmt"
	"sort"

	"crayfish/internal/model"
)

// Format identifies a model storage format.
type Format string

// The formats from Table 2.
const (
	ONNX       Format = "onnx"
	SavedModel Format = "savedmodel"
	Torch      Format = "torch"
	H5         Format = "h5"
)

// codec encodes and decodes one storage format.
type codec interface {
	// Format returns the format this codec handles.
	Format() Format
	// Encode serialises a model.
	Encode(m *model.Model) ([]byte, error)
	// Decode reconstructs a model; weights round-trip bit-exactly.
	Decode(data []byte) (*model.Model, error)
}

var codecs = map[Format]codec{
	ONNX:       onnxCodec{},
	SavedModel: savedModelCodec{},
	Torch:      torchCodec{},
	H5:         h5Codec{},
}

// lookup returns the codec for a format.
func lookup(f Format) (codec, error) {
	c, ok := codecs[f]
	if !ok {
		known := make([]string, 0, len(codecs))
		for k := range codecs {
			known = append(known, string(k))
		}
		sort.Strings(known)
		return nil, fmt.Errorf("modelfmt: unknown format %q (known: %v)", f, known)
	}
	return c, nil
}

// Encode serialises m in the given format.
func Encode(f Format, m *model.Model) ([]byte, error) {
	c, err := lookup(f)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("modelfmt: refusing to encode invalid model: %w", err)
	}
	return c.Encode(m)
}

// Decode reconstructs a model stored in the given format.
func Decode(f Format, data []byte) (*model.Model, error) {
	c, err := lookup(f)
	if err != nil {
		return nil, err
	}
	m, err := c.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("modelfmt: decoded model invalid: %w", err)
	}
	return m, nil
}

// Sniff guesses the format of stored bytes from its magic header.
func Sniff(data []byte) (Format, error) {
	switch {
	case hasMagic(data, onnxMagic):
		return ONNX, nil
	case hasMagic(data, h5Magic):
		return H5, nil
	case hasMagic(data, savedModelMagic):
		return SavedModel, nil
	case len(data) >= 2 && data[0] == 'P' && data[1] == 'K': // ZIP
		return Torch, nil
	default:
		return "", fmt.Errorf("modelfmt: unrecognised model bytes")
	}
}

func hasMagic(data []byte, magic string) bool {
	return len(data) >= len(magic) && string(data[:len(magic)]) == magic
}
