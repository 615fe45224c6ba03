// Package model seeds hotpathalloc violations in a hot model file:
// plan.go and attnexec.go are allocation-restricted in their entirety.
package model

import (
	"fixture.test/internal/tensor"
)

// Forward allocates per call instead of drawing from a plan arena.
func Forward(n int) *tensor.Tensor {
	buf := make([]float32, n) // want hotpathalloc
	_ = buf
	return tensor.New(n) // want hotpathalloc
}
