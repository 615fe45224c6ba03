package tensor

// This file seeds hotpathalloc violations: allocations inside an
// Into-variant kernel and inside a hot helper, plus one deliberately
// annotated cold-path allocation that must be suppressed.

// Tensor is a minimal stand-in for the real tensor type.
type Tensor struct{ data []float32 }

// New allocates a tensor; allocating here is fine — New is the cold
// constructor, not a hot kernel.
func New(n int) *Tensor { return &Tensor{data: make([]float32, n)} }

// ScaleInto is an Into-variant kernel: allocations inside are hot-path
// violations.
func ScaleInto(dst, src *Tensor, k float32) {
	tmp := make([]float32, len(src.data)) // want hotpathalloc
	t := New(len(src.data))               // want hotpathalloc
	//lint:allow hotpathalloc seeded suppression: a documented cold-path scratch
	warm := make([]float32, 8)
	_, _ = tmp, t
	_ = warm
	for i, v := range src.data {
		dst.data[i] = v * k
	}
}

// im2col is on the hot-helper allow-list even without the Into suffix.
func im2col(src []float32) []float32 {
	col := make([]float32, len(src)) // want hotpathalloc
	copy(col, src)
	return col
}

// QScaleInto seeds the quantized-path datatypes: int8 value and int32
// accumulator makes inside an Into-variant kernel are violations too.
func QScaleInto(dst []int8, acc []int32) {
	q := make([]int8, len(dst))  // want hotpathalloc
	a := make([]int32, len(acc)) // want hotpathalloc
	_, _ = q, a
}

// qMatMulPacked is on the hot-helper allow-list; packed-word scratch
// must come from the arena.
func qMatMulPacked(lhs []uint64) []uint64 {
	w := make([]uint64, len(lhs)) // want hotpathalloc
	copy(w, lhs)
	return w
}

// PackRHS is a cold packer: growing the packed buffer here is fine.
func PackRHS(n int) []uint64 { return make([]uint64, n) }

// attentionRows is on the hot-helper allow-list: the fused-attention
// lane kernel's accumulator and score strips come from caller scratch.
func attentionRows(src []float32) []float32 {
	lane := make([]float32, len(src)) // want hotpathalloc
	copy(lane, src)
	return lane
}

// softmaxRows is on the hot-helper allow-list (the shared softmax row
// loop).
func softmaxRows(dst []float32) []float32 {
	rows := make([]float32, len(dst)) // want hotpathalloc
	copy(rows, dst)
	return rows
}
