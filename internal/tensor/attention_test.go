package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// maxAbsDiff returns the largest element-wise absolute difference.
func maxAbsDiff(a, b *Tensor) float64 {
	var m float64
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		d := math.Abs(float64(ad[i]) - float64(bd[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// TestAttentionKernelsMatchAndDontAllocate checks the fused transformer
// Into kernels against their allocating counterparts (bit-identical),
// the pooled fan-out against the sequential fused kernel (bit-identical
// at every worker count — rows are produced whole per lane), and
// asserts every Into path is allocation-free with caller scratch.
func TestAttentionKernelsMatchAndDontAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n, s, heads = 2, 33, 4
	d := 24
	src := randTensor(r, n, s, 3*d)

	want, err := Attention(src, heads)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(n, s, d)
	scratch := make([]float32, AttentionScratchLen(d, heads, 1))
	assertZeroAllocs(t, "AttentionPoolInto without a pool", func() { AttentionPoolInto(dst, src, heads, scratch, 1, nil, nil) })
	if !bitEqual(dst, want) {
		t.Error("AttentionPoolInto without a pool differs from Attention")
	}

	pool := NewWorkPool(3)
	defer pool.Close()
	var wg sync.WaitGroup
	pscr := make([]float32, AttentionScratchLen(d, heads, 4))
	for _, workers := range []int{1, 2, 3, 4} {
		dst.Fill(-1)
		AttentionPoolInto(dst, src, heads, pscr, workers, pool, &wg)
		if !bitEqual(dst, want) {
			t.Errorf("workers=%d: pooled attention differs from sequential fused", workers)
		}
	}
	assertZeroAllocs(t, "AttentionPoolInto", func() { AttentionPoolInto(dst, src, heads, pscr, 4, pool, &wg) })

	wantRef, err := AttentionReference(src, heads)
	if err != nil {
		t.Fatal(err)
	}
	rscr := make([]float32, AttentionReferenceScratchLen(s))
	assertZeroAllocs(t, "AttentionReferenceInto", func() { AttentionReferenceInto(dst, src, heads, rscr) })
	if !bitEqual(dst, wantRef) {
		t.Error("AttentionReferenceInto differs from AttentionReference")
	}

	x := randTensor(r, 5, 16)
	skip := randTensor(r, 5, 16)
	gamma := randTensor(r, 16)
	beta := randTensor(r, 16)
	lnDst := New(5, 16)
	assertZeroAllocs(t, "LayerNormResidualInto", func() { LayerNormResidualInto(lnDst, x, skip, gamma, beta, 1e-5) })
	assertZeroAllocs(t, "LayerNormReferenceInto", func() { LayerNormReferenceInto(lnDst, x, skip, gamma, beta, 1e-5) })

	g := randTensor(r, 7, 9)
	gDst := New(7, 9)
	assertZeroAllocs(t, "GELUInto", func() { GELUInto(gDst, g) })
	assertZeroAllocs(t, "GELUReferenceInto", func() { GELUReferenceInto(gDst, g) })
}

// TestAttentionFusedMatchesReference is the fused-vs-unfused property
// test: over random shapes and seeds — including sequences longer than
// the key tile, so the online-softmax rescale path runs — the tiled
// flash-style kernel must agree with the score-materialising reference
// within the pinned tolerance (the two differ only in summation order
// and the exp-rescale of the running state).
func TestAttentionFusedMatchesReference(t *testing.T) {
	const tol = 1e-4
	cases := []struct{ n, s, d, heads int }{
		{1, 1, 4, 1},
		{1, 5, 8, 2},
		{2, 33, 24, 4},  // crosses one key-tile boundary
		{1, 80, 16, 8},  // two boundaries, dh=2 lanes
		{3, 64, 12, 3},  // exactly one full tile
		{2, 130, 32, 4}, // ragged final tile
	}
	for ci, c := range cases {
		r := rand.New(rand.NewSource(int64(100 + ci)))
		src := randTensor(r, c.n, c.s, 3*c.d)
		fused, err := Attention(src, c.heads)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := AttentionReference(src, c.heads)
		if err != nil {
			t.Fatal(err)
		}
		if diff := maxAbsDiff(fused, ref); diff > tol {
			t.Errorf("case %+v: fused vs reference max diff %g > %g", c, diff, tol)
		}
	}

	// Fused one-pass layer norm vs the multi-pass reference: same
	// residual semantics, tolerance pinned at 1e-5 (float64 accumulation
	// in both, only the variance formula differs).
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(200 + seed))
		x := randTensor(r, 4, 32)
		skip := randTensor(r, 4, 32)
		gamma := randTensor(r, 32)
		beta := randTensor(r, 32)
		a, b := New(4, 32), New(4, 32)
		LayerNormResidualInto(a, x, skip, gamma, beta, 1e-5)
		LayerNormReferenceInto(b, x, skip, gamma, beta, 1e-5)
		if diff := maxAbsDiff(a, b); diff > 1e-5 {
			t.Errorf("seed %d: fused vs reference layer norm max diff %g > 1e-5", seed, diff)
		}
		// skip == nil is plain layer norm on both paths.
		LayerNormResidualInto(a, x, nil, gamma, beta, 1e-5)
		LayerNormReferenceInto(b, x, nil, gamma, beta, 1e-5)
		if diff := maxAbsDiff(a, b); diff > 1e-5 {
			t.Errorf("seed %d: nil-skip layer norm max diff %g > 1e-5", seed, diff)
		}
	}

	// Tanh-approximation GELU vs the exact erf form: the approximation
	// error is bounded by ~1e-3 absolute on typical activations.
	r := rand.New(rand.NewSource(300))
	g := randTensor(r, 16, 16)
	ga, gb := New(16, 16), New(16, 16)
	GELUInto(ga, g)
	GELUReferenceInto(gb, g)
	if diff := maxAbsDiff(ga, gb); diff > 5e-3 {
		t.Errorf("tanh vs erf GELU max diff %g > 5e-3", diff)
	}
}

// TestLayerNormGELUKernels pins the aliasing and shape contracts: dst
// may alias x for the layer norms and src for GELU, and malformed
// attention inputs are rejected with errors (allocating API) or panics
// (Into kernels).
func TestLayerNormGELUKernels(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	x := randTensor(r, 3, 8)
	skip := randTensor(r, 3, 8)
	gamma := randTensor(r, 8)
	beta := randTensor(r, 8)

	want := New(3, 8)
	LayerNormResidualInto(want, x, skip, gamma, beta, 1e-5)
	aliased := x.Clone()
	LayerNormResidualInto(aliased, aliased, skip, gamma, beta, 1e-5)
	if !bitEqual(aliased, want) {
		t.Error("aliased LayerNormResidualInto differs from out-of-place")
	}

	g := randTensor(r, 3, 8)
	wantG := New(3, 8)
	GELUInto(wantG, g)
	gAlias := g.Clone()
	GELUInto(gAlias, gAlias)
	if !bitEqual(gAlias, wantG) {
		t.Error("aliased GELUInto differs from out-of-place")
	}
	gRef := g.Clone()
	wantRef := New(3, 8)
	GELUReferenceInto(wantRef, g)
	GELUReferenceInto(gRef, gRef)
	if !bitEqual(gRef, wantRef) {
		t.Error("aliased GELUReferenceInto differs from out-of-place")
	}

	// Allocating attention API rejects malformed inputs with errors.
	if _, err := Attention(New(4, 6), 2); err == nil {
		t.Error("rank-2 attention input accepted")
	}
	if _, err := Attention(New(1, 4, 7), 1); err == nil {
		t.Error("width not divisible by 3 accepted")
	}
	if _, err := Attention(New(1, 4, 12), 3); err == nil {
		t.Error("heads not dividing model dim accepted")
	}
	if _, err := AttentionReference(New(1, 4, 12), 0); err == nil {
		t.Error("zero heads accepted")
	}

	// Into kernels panic on scratch shortfall (plan-compile-validated).
	defer func() {
		if recover() == nil {
			t.Error("short attention scratch did not panic")
		}
	}()
	AttentionPoolInto(New(1, 4, 4), New(1, 4, 12), 2, make([]float32, 1), 1, nil, nil)
}

// BenchmarkAttentionFusedVsUnfused is the kernel-level speedup contract
// (docs/PERFORMANCE.md, scripts/bench.sh): at the pinned S=256, D=64,
// heads=4 shape the tiled flash-style kernel must run at least 1.5x the
// score-materialising reference, with 0 B/op on the fused path. The
// ns/op ratio is booked as attention_fused_speedup in
// BENCH_inference.json.
func BenchmarkAttentionFusedVsUnfused(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const n, s, d, heads = 1, 256, 64, 4
	src := randTensor(r, n, s, 3*d)
	dst := New(n, s, d)

	b.Run("fused", func(b *testing.B) {
		scratch := make([]float32, AttentionScratchLen(d, heads, 1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			AttentionPoolInto(dst, src, heads, scratch, 1, nil, nil)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		scratch := make([]float32, AttentionReferenceScratchLen(s))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			AttentionReferenceInto(dst, src, heads, scratch)
		}
	})
}
