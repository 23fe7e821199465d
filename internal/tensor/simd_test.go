package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// simdSpecials are the operands where a lane that rounds, flushes or orders
// differently from the scalar loop would show: signed zeros, subnormals,
// the smallest normal, infinities, values whose product overflows, NaN.
var simdSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
	-2.2250738585072014e-308, math.Inf(1), math.Inf(-1), math.MaxFloat64,
	-math.MaxFloat64 / 1.5, 1e308, math.NaN(), 1, -1,
}

// simdSigns are operands whose sums and products differ only in the sign of
// a zero: they catch a dropped 0 + or a swapped operand that the mixed draws
// reach too rarely.
var simdSigns = []float64{0, math.Copysign(0, -1), 1, -1}

// simdDraw returns n operands: from simdSigns alone if signs is set, else one
// in four from simdSpecials and the rest normal draws scaled across forty
// binades.
func simdDraw(rng *rand.Rand, n int, signs bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		if signs {
			v[i] = simdSigns[rng.Intn(len(simdSigns))]
		} else if rng.Intn(4) == 0 {
			v[i] = simdSpecials[rng.Intn(len(simdSpecials))]
		} else {
			v[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(40)-20)
		}
	}
	return v
}

// TestSIMDMatchesScalar runs every element-wise kernel once with the
// assembly selected and once with the Go loops alone (useAVX2 cleared) on
// the same operands, and requires the same bits: lengths 0–67 (the assembly
// part, the tail and both together), slices starting at odd offsets, in
// place and out of place, every a/post case of ScaleAddInto, and the
// special values above as operands and as scalars. Then the block
// MomentumStepOuter (0–5 rows of 0–67 elements) and MulVec (0–40 rows × 0–13,
// 60 and 61 columns: whole 16-row blocks, their last columns, the rows after
// them). A NaN must come out as a NaN; its payload is not compared. Without AVX2, and in every race build,
// both runs take the Go loops.
func TestSIMDMatchesScalar(t *testing.T) {
	if raceEnabled && useAVX2 {
		t.Fatal("race build selected the assembly kernels")
	}
	if !useAVX2 {
		t.Log("assembly kernels not selected on this build or host: comparing the Go loops with themselves")
	}
	kernels := []struct {
		name string
		bufs int
		run  func(b [][]float64, s []float64)
	}{
		{"ScaleInto", 2, func(b [][]float64, s []float64) { ScaleInto(b[0], b[1], s[0]) }},
		{"ScaleInto/in-place", 1, func(b [][]float64, s []float64) { ScaleInto(b[0], b[0], s[0]) }},
		{"ScaleAddInto", 3, func(b [][]float64, s []float64) { ScaleAddInto(b[0], b[1], b[2], s[0], s[1]) }},
		{"ScaleAddInto/in-place", 2, func(b [][]float64, s []float64) { ScaleAddInto(b[0], b[0], b[1], s[0], s[1]) }},
		{"addScaledSerial", 2, func(b [][]float64, s []float64) { addScaledSerial(b[0], b[1], s[0]) }},
		{"MomentumStep", 3, func(b [][]float64, s []float64) { MomentumStep(b[0], b[1], b[2], s[0], s[1], s[2]) }},
	}
	simd := useAVX2
	defer func() { useAVX2 = simd }()
	run := func(k func([][]float64, []float64), in [][]float64, s []float64, asm bool) [][]float64 {
		out := make([][]float64, len(in))
		for i, v := range in {
			out[i] = append(make([]float64, 1), v...)[1:] // odd offset into a fresh array
		}
		useAVX2 = asm && simd
		k(out, s)
		return out
	}
	// check runs k on in both ways and requires the same bits.
	check := func(name string, k func([][]float64, []float64), in [][]float64, s []float64) {
		t.Helper()
		got, want := run(k, in, s, true), run(k, in, s, false)
		for b := range got {
			for i := range got[b] {
				g, w := got[b][i], want[b][i]
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%s scalars=%v: buffer %d [%d] = %v (%#x), scalar loop %v (%#x)",
						name, s, b, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
	// draw returns one operand per length and the scalars of case c: bit 0
	// clear sets a (s[0]) to 1, bit 1 clear sets post (s[1]) to 1; bit 2 set
	// draws from simdSigns.
	rng := rand.New(rand.NewSource(28))
	draw := func(c int, lens ...int) ([][]float64, []float64) {
		s := simdDraw(rng, 4, c&4 != 0)
		if c&1 == 0 {
			s[0] = 1
		}
		if c&2 == 0 {
			s[1] = 1
		}
		in := make([][]float64, len(lens))
		for i, n := range lens {
			in[i] = simdDraw(rng, n, c&4 != 0)
		}
		return in, s
	}
	for _, k := range kernels {
		for n := 0; n <= 67; n++ {
			for c := 0; c < 8; c++ {
				in, s := draw(c, n, n, n)
				check(fmt.Sprintf("%s n=%d", k.name, n), k.run, in[:k.bufs], s)
			}
		}
	}
	outer := func(b [][]float64, s []float64) { MomentumStepOuter(b[0], b[1], b[2], b[3], s[0], s[1], s[2]) }
	for rows := 0; rows <= 5; rows++ {
		for n := 0; n <= 67; n++ {
			for c := 0; c < 8; c++ {
				in, s := draw(c, rows*n, rows*n, rows, n)
				check(fmt.Sprintf("MomentumStepOuter %dx%d", rows, n), outer, in, s)
			}
		}
	}
	for rows := 0; rows <= 40; rows++ {
		for _, cols := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 60, 61} {
			mulVec := func(b [][]float64, _ []float64) { MatrixFrom(rows, cols, b[1]).MulVec(b[0], b[2]) }
			for c := 0; c < 8; c++ {
				in, s := draw(c, rows, rows*cols, cols)
				check(fmt.Sprintf("MulVec %dx%d", rows, cols), mulVec, in, s)
			}
		}
	}
}
