package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWinogradMatchesDirectProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func(hRaw, wRaw, icRaw, ocRaw, padRaw uint8) bool {
		h := int(hRaw)%12 + 3
		w := int(wRaw)%12 + 3
		ic := int(icRaw)%4 + 1
		oc := int(ocRaw)%5 + 1
		pad := int(padRaw) % 2
		in := randTensor(r, 1, ic, h, w)
		k := randTensor(r, oc, ic, 3, 3)
		direct, err := Conv2D(in, k, 1, pad)
		if err != nil {
			return pad == 0 && (h < 3 || w < 3)
		}
		fast, err := Conv2DWinograd(in, k, pad)
		if err != nil {
			return false
		}
		return direct.AllClose(fast, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWinogradBatchAndOddSizes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	// Odd output sizes exercise the tile-trim path; batch > 1 exercises
	// per-image loops.
	in := randTensor(r, 3, 2, 7, 9)
	k := randTensor(r, 4, 2, 3, 3)
	direct, err := Conv2D(in, k, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Conv2DWinograd(in, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.AllClose(fast, 1e-3) {
		t.Fatal("Winograd differs from direct conv on odd sizes")
	}
}

func TestWinogradRejectsBadShapes(t *testing.T) {
	if _, err := NewWinogradConv(New(2, 2, 5, 5)); err == nil {
		t.Fatal("5×5 kernel accepted")
	}
	if _, err := NewWinogradConv(New(4)); err == nil {
		t.Fatal("rank-1 kernel accepted")
	}
	w, err := NewWinogradConv(New(2, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Apply(New(1, 2, 8, 8), 1); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	if _, err := w.Apply(New(4), 1); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := w.Apply(New(1, 3, 1, 1), 0); err == nil {
		t.Fatal("empty output accepted")
	}
}

func TestWinogradReusableAcrossCalls(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	k := randTensor(r, 2, 2, 3, 3)
	w, err := NewWinogradConv(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		in := randTensor(r, 1, 2, 6, 6)
		direct, err := Conv2D(in, k, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := w.Apply(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !direct.AllClose(fast, 1e-3) {
			t.Fatalf("call %d differs", i)
		}
	}
}

func BenchmarkConvDirectVsWinograd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	in := randTensor(r, 1, 16, 32, 32)
	k := randTensor(r, 16, 16, 3, 3)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Conv2D(in, k, 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	w, err := NewWinogradConv(k)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("winograd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.Apply(in, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Conv2DWinograd is a convenience wrapper constructing the transform and
// applying it once; runtimes keep a WinogradConv per layer instead.
func Conv2DWinograd(in, kernel *Tensor, pad int) (*Tensor, error) {
	w, err := NewWinogradConv(kernel)
	if err != nil {
		return nil, err
	}
	return w.Apply(in, pad)
}
