// Package tensor implements a dense float32 tensor and the numeric kernels
// used by the model substrate: blocked matrix multiplication, im2col
// convolution, activations, pooling and normalisation.
//
// The package is the computational foundation of every serving runtime in
// this repository. Kernels come in a sequential flavour and, where it
// matters, a data-parallel flavour used by the simulated GPU device.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// scalar-less tensor; use New or FromSlice to construct usable values.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied). It returns an error if the element count does not
// match the shape.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	if len(data) != n {
		return nil, fmt.Errorf("tensor: %d elements cannot fill shape %v (%d)", len(data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// Shape returns the tensor's dimensions. The caller must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice in row-major order. The caller may read
// and write elements but must not re-slice beyond its length.
func (t *Tensor) Data() []float32 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of the tensor with a new shape sharing the same
// backing data. It returns an error if the element counts differ. One
// dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	infer := -1
	n := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer != -1 {
				return nil, fmt.Errorf("tensor: multiple inferred dimensions in %v", shape)
			}
			infer = i
		case d < 0:
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		default:
			n *= d
		}
	}
	out := append([]int(nil), shape...)
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			return nil, fmt.Errorf("tensor: cannot infer dimension for %v from %d elements", shape, len(t.data))
		}
		out[infer] = len(t.data) / n
		n *= out[infer]
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: reshape %v -> %v element mismatch", t.shape, shape)
	}
	return &Tensor{shape: out, data: t.data}, nil
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// AllClose reports whether every element of t is within tol of the
// corresponding element of o and the shapes match.
//
//lint:allow deadexport model and modelfmt tests compare tensors through it
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if math.Abs(float64(t.data[i])-float64(o.data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
