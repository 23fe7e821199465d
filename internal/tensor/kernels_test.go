package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestAddScaledSmall(t *testing.T) {
	dst := []float64{1, 2, 3}
	src := []float64{10, 20, 30}
	AddScaled(dst, src, 0.5)
	want := []float64{6, 12, 18}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestAddScaledUnitFastPath(t *testing.T) {
	dst := []float64{1, 2}
	AddScaled(dst, []float64{3, 4}, 1)
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("dst = %v", dst)
	}
}

func TestAddScaledLenMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	AddScaled(make([]float64, 3), make([]float64, 4), 1)
}

// TestAddScaledParallelBitIdentical pins the property the segmented
// collectives rely on: the parallel path produces bit-identical results to
// the serial inner loop, because every element is computed independently.
func TestAddScaledParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{ParallelThreshold, ParallelThreshold + 1, 4*ParallelThreshold + 13} {
		dst := make([]float64, n)
		src := make([]float64, n)
		for i := range dst {
			dst[i] = rng.NormFloat64()
			src[i] = rng.NormFloat64()
		}
		ref := make([]float64, n)
		copy(ref, dst)
		a := rng.NormFloat64()

		addScaledSerial(ref, src, a) // ground truth, never parallel
		AddScaled(dst, src, a)       // over threshold: pool path
		for i := range dst {
			if dst[i] != ref[i] {
				t.Fatalf("n=%d: dst[%d] = %x, want %x (not bit-identical)", n, i, dst[i], ref[i])
			}
		}
	}
}

// TestAddScaledConcurrentCallers exercises the kernel pool from many
// goroutines at once (run under -race in make ci): the pool serializes
// kernel dispatches, so concurrent callers must neither race nor mix
// operands.
func TestAddScaledConcurrentCallers(t *testing.T) {
	const callers = 8
	n := ParallelThreshold + 257
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, n)
			src := make([]float64, n)
			for i := range src {
				src[i] = float64(c + 1)
			}
			for rep := 0; rep < 10; rep++ {
				AddScaled(dst, src, 1)
			}
			for i := range dst {
				if dst[i] != 10*float64(c+1) {
					t.Errorf("caller %d: dst[%d] = %v, want %v", c, i, dst[i], 10*float64(c+1))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestAddScaledDispatchAllocFree(t *testing.T) {
	n := 4 * ParallelThreshold
	dst := make([]float64, n)
	src := make([]float64, n)
	AddScaled(dst, src, 2) // warm the pool
	avg := testing.AllocsPerRun(50, func() { AddScaled(dst, src, 2) })
	if avg > 0.5 {
		t.Errorf("parallel AddScaled allocates %.1f times per call, want 0", avg)
	}
}

func BenchmarkAddScaled(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(sizeName(n), func(b *testing.B) {
			dst := make([]float64, n)
			src := make([]float64, n)
			b.SetBytes(int64(16 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AddScaled(dst, src, 0.5)
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "1M"
	case n >= 1<<16:
		return "64K"
	default:
		return "4K"
	}
}

// diffBits reports the first index at which a and b differ as bit patterns
// (so +0 ≠ −0), or -1.
func diffBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestFusedKernelsMatchSeparatePasses pins the fold: ScaleInto, ScaleAddInto
// and SetOuter leave bit-for-bit what the full-vector passes they replace
// leave (Scale, Add, Scale; Zero, AddOuter), signed zeros included, in place
// and out of place, on the unit fast paths and off them.
func TestFusedKernelsMatchSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 257
	draw := func() Vector {
		v := NewVector(n)
		for i := range v {
			switch rng.Intn(6) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = math.Copysign(0, -1)
			default:
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	negZero := math.Copysign(0, -1)
	for _, a := range []float64{1, 0.3, -0.5, 0, negZero, 1.0 / 3} {
		for _, post := range []float64{1, 1.0 / 3, -2} {
			x, y := draw(), draw()
			want := x.Clone()
			want.Scale(a)
			want.Add(y)
			want.Scale(post)

			out := NewVector(n)
			ScaleAddInto(out, x, y, a, post)
			if i := diffBits(out, want); i >= 0 {
				t.Fatalf("a=%v post=%v out of place: [%d] = %x, want %x", a, post, i, out[i], want[i])
			}
			in := x.Clone()
			ScaleAddInto(in, in, y, a, post)
			if i := diffBits(in, want); i >= 0 {
				t.Fatalf("a=%v post=%v in place: [%d] = %x, want %x", a, post, i, in[i], want[i])
			}
		}

		x := draw()
		want := x.Clone()
		want.Scale(a)
		out := NewVector(n)
		ScaleInto(out, x, a)
		if i := diffBits(out, want); i >= 0 {
			t.Fatalf("ScaleInto a=%v: [%d] = %x, want %x", a, i, out[i], want[i])
		}
	}

	u, v := draw()[:9], draw()[:13]
	ref, got := NewMatrix(9, 13), NewMatrix(9, 13)
	got.Data.Fill(math.NaN()) // SetOuter must overwrite, not accumulate
	ref.Zero()
	ref.AddOuter(1, u, v)
	got.SetOuter(u, v)
	if i := diffBits(got.Data, ref.Data); i >= 0 {
		t.Fatalf("SetOuter: [%d] = %x, want %x", i, got.Data[i], ref.Data[i])
	}
}

func TestZeroClears(t *testing.T) {
	v := Vector{1, math.Copysign(0, -1), math.NaN(), -3}
	v.Zero()
	if i := diffBits(v, make(Vector, len(v))); i >= 0 {
		t.Fatalf("Zero left v[%d] = %x", i, v[i])
	}
}
