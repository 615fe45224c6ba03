package model

// attnexec.go is allocation-restricted in its entirety, like plan.go:
// the transformer-operator dispatch the compiled plan runs lives here.

import (
	"fixture.test/internal/tensor"
)

// AttnInto allocates a lane strip per call instead of using the
// execution state's pre-sized attention scratch.
func AttnInto(n int) *tensor.Tensor {
	lane := make([]float32, n) // want hotpathalloc
	_ = lane
	return tensor.New(n) // want hotpathalloc
}
