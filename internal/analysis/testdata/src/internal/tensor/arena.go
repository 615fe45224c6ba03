package tensor // want hotpathalloc

// Arena is a minimal stand-in for the real buffer arena: the
// arenadiscipline analyzer recognizes the Get/Wrap/Recycle/Reset method
// set on a type named Arena in a package ending internal/tensor.
type Arena struct {
	free []*Tensor
}

// Get hands out a buffer (unspecified contents) that stays valid until
// Recycle or Reset.
func (a *Arena) Get(n int) *Tensor {
	if len(a.free) > 0 {
		t := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		return t
	}
	return New(n)
}

// Wrap views caller-owned data through an arena header.
func (a *Arena) Wrap(data []float32) *Tensor { return &Tensor{data: data} }

// Recycle returns one buffer to the free list early.
func (a *Arena) Recycle(t *Tensor) { a.free = append(a.free, t) }

// Reset reclaims every outstanding buffer.
func (a *Arena) Reset() { a.free = a.free[:0] }

// Data exposes the backing slice.
func (t *Tensor) Data() []float32 { return t.data }

// Fill writes v everywhere.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}
