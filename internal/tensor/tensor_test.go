package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorBasics(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}

	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone aliases original: v=%v", v)
	}

	v.Add(w)
	if v[0] != 5 || v[1] != 7 || v[2] != 9 {
		t.Fatalf("Add: got %v", v)
	}
	v.Sub(w)
	if v[0] != 1 || v[2] != 3 {
		t.Fatalf("Sub: got %v", v)
	}
	v.Scale(2)
	if v[1] != 4 {
		t.Fatalf("Scale: got %v", v)
	}
	v.Fill(7)
	if v.Sum() != 21 {
		t.Fatalf("Fill/Sum: got %v sum %v", v, v.Sum())
	}
	v.Zero()
	if v.Norm2() != 0 {
		t.Fatalf("Zero: got %v", v)
	}
}

func TestVectorAxpyDot(t *testing.T) {
	v := Vector{1, 1}
	w := Vector{2, 3}
	v.Axpy(2, w)
	if v[0] != 5 || v[1] != 7 {
		t.Fatalf("Axpy: got %v", v)
	}
	if got := w.Dot(Vector{1, -1}); got != -1 {
		t.Fatalf("Dot: got %v", got)
	}
}

func TestVectorNorms(t *testing.T) {
	v := Vector{3, -4}
	if !almostEq(v.Norm2(), 5, 1e-12) {
		t.Fatalf("Norm2: got %v", v.Norm2())
	}
	if v.NormInf() != 4 {
		t.Fatalf("NormInf: got %v", v.NormInf())
	}
	var empty Vector
	if empty.NormInf() != 0 || empty.Norm2() != 0 {
		t.Fatal("empty vector norms should be 0")
	}
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		v    Vector
		want int
	}{
		{Vector{}, -1},
		{Vector{1}, 0},
		{Vector{1, 3, 2}, 1},
		{Vector{5, 5, 5}, 0}, // ties -> lowest index
		{Vector{-2, -1, -3}, 1},
	}
	for _, c := range cases {
		if got := c.v.ArgMax(); got != c.want {
			t.Errorf("ArgMax(%v)=%d want %d", c.v, got, c.want)
		}
	}
}

func TestSoftmax(t *testing.T) {
	v := Vector{1, 2, 3}
	dst := NewVector(3)
	Softmax(dst, v)
	if !almostEq(dst.Sum(), 1, 1e-12) {
		t.Fatalf("softmax sums to %v", dst.Sum())
	}
	if !(dst[2] > dst[1] && dst[1] > dst[0]) {
		t.Fatalf("softmax not monotone: %v", dst)
	}
	// Stability: huge logits must not overflow.
	big := Vector{1000, 1001, 1002}
	Softmax(dst, big)
	if math.IsNaN(dst.Sum()) || !almostEq(dst.Sum(), 1, 1e-9) {
		t.Fatalf("softmax unstable on large inputs: %v", dst)
	}
	// Aliasing: dst == v is allowed.
	Softmax(big, big)
	if !almostEq(big.Sum(), 1, 1e-9) {
		t.Fatalf("aliased softmax: %v", big)
	}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp(Vector{0, 0}); !almostEq(got, math.Log(2), 1e-12) {
		t.Fatalf("LogSumExp: got %v", got)
	}
	if got := LogSumExp(Vector{1000, 1000}); !almostEq(got, 1000+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp overflow: got %v", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Fatalf("LogSumExp(empty): got %v", got)
	}
}

func TestWeightedAverageAndMean(t *testing.T) {
	vs := []Vector{{1, 2}, {3, 4}, {5, 6}}
	dst := NewVector(2)
	WeightedAverage(dst, []float64{0.5, 0.25, 0.25}, vs)
	if !almostEq(dst[0], 2.5, 1e-12) || !almostEq(dst[1], 3.5, 1e-12) {
		t.Fatalf("WeightedAverage: got %v", dst)
	}
	WeightedAverage(dst, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, vs)
	if !almostEq(dst[0], 3, 1e-12) || !almostEq(dst[1], 4, 1e-12) {
		t.Fatalf("uniform WeightedAverage (the mean): got %v", dst)
	}
}

// TestWeightedAverageConvexIdentity is the convex-combination property: for
// any weight vector summing to 1, the weighted average of copies of a
// constant vector is that vector, within 1e-12 per element.
func TestWeightedAverageConvexIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		c := rng.NormFloat64() * 10
		weights := make([]float64, n)
		sum := 0.0
		for i := range weights {
			weights[i] = rng.Float64()
			sum += weights[i]
		}
		for i := range weights {
			weights[i] /= sum
		}
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = Vector{c, c, c}
		}
		dst := NewVector(3)
		WeightedAverage(dst, weights, vs)
		for j, got := range dst {
			if !almostEq(got, c, 1e-12*math.Max(1, math.Abs(c))) {
				t.Fatalf("trial %d: weights %v over constant %v: dst[%d]=%v", trial, weights, c, j, got)
			}
		}
	}
}

func TestMismatchPanics(t *testing.T) {
	assertPanics(t, "Add", func() { Vector{1}.Add(Vector{1, 2}) })
	assertPanics(t, "CopyFrom", func() { Vector{1}.CopyFrom(Vector{1, 2}) })
	assertPanics(t, "Dot", func() { Vector{1}.Dot(Vector{1, 2}) })
	assertPanics(t, "WeightedAverage", func() { WeightedAverage(NewVector(1), []float64{1}, nil) })
	assertPanics(t, "MatrixFrom", func() { MatrixFrom(2, 2, Vector{1}) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestMatrixMulVec(t *testing.T) {
	m := MatrixFrom(2, 3, Vector{1, 2, 3, 4, 5, 6})
	x := Vector{1, 0, -1}
	dst := NewVector(2)
	m.MulVec(dst, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MulVec: got %v", dst)
	}
	y := Vector{1, 1}
	dt := NewVector(3)
	m.MulVecT(dt, y)
	if dt[0] != 5 || dt[1] != 7 || dt[2] != 9 {
		t.Fatalf("MulVecT: got %v", dt)
	}
}

func TestMatrixAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, Vector{1, 2}, Vector{3, 4})
	want := []float64{6, 8, 12, 16}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddOuter: got %v want %v", m.Data, want)
		}
	}
}

func TestTransposeSymmetric(t *testing.T) {
	m := MatrixFrom(2, 3, Vector{1, 2, 3, 4, 5, 6})
	s := MatrixFrom(2, 2, Vector{1, 2, 2, 1})
	if !s.IsSymmetric(0) {
		t.Fatal("IsSymmetric false negative")
	}
	ns := MatrixFrom(2, 2, Vector{1, 2, 3, 1})
	if ns.IsSymmetric(0.5) {
		t.Fatal("IsSymmetric false positive")
	}
	if m.IsSymmetric(0) {
		t.Fatal("non-square cannot be symmetric")
	}
}

func TestGlorotInit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(50, 40)
	m.FillGlorot(rng, 40, 50)
	limit := math.Sqrt(6.0 / 90.0)
	for _, x := range m.Data {
		if math.Abs(x) > limit {
			t.Fatalf("Glorot out of range: %v > %v", x, limit)
		}
	}
	if m.Data.NormInf() == 0 {
		t.Fatal("Glorot produced all zeros")
	}
}

// Property: axpy then inverse axpy is identity (within float tolerance).
func TestQuickAxpyInverse(t *testing.T) {
	f := func(xs []float64, a float64) bool {
		if len(xs) == 0 || math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
		}
		v := Vector(xs).Clone()
		w := v.Clone()
		v.Axpy(a, w)
		v.Axpy(-a, w)
		for i := range v {
			if !almostEq(v[i], w[i], 1e-6*(1+math.Abs(w[i]))*(1+math.Abs(a))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for any finite input.
func TestQuickSoftmaxDistribution(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		dst := NewVector(len(xs))
		Softmax(dst, xs)
		var sum float64
		for _, p := range dst {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestQuickDotSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		v, w := NewVector(n), NewVector(n)
		for i := 0; i < n; i++ {
			v[i] = rng.NormFloat64()
			w[i] = rng.NormFloat64()
		}
		if !almostEq(v.Dot(w), w.Dot(v), 1e-9) {
			t.Fatalf("Dot not symmetric")
		}
		v2 := v.Clone()
		v2.Scale(2)
		if !almostEq(v2.Dot(w), 2*v.Dot(w), 1e-8*(1+math.Abs(v.Dot(w)))) {
			t.Fatalf("Dot not linear")
		}
	}
}

// Property: row blocking changes which rows share a pass, never the order a
// row is summed in, so MulVec leaves the bits of the one-row-at-a-time loop
// for every tail length: up to 40 rows reach two 16-row AVX2 blocks and the
// four-row loop after them.
func TestQuickMulVecConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for rows := 0; rows <= 40; rows++ {
		for _, cols := range []int{0, 1, 5, 60, 61} {
			a, x := NewMatrix(rows, cols), NewVector(cols)
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64() * float64(rng.Intn(4)) // exact zeros included
			}
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			got, want := NewVector(rows), NewVector(rows)
			got.Fill(math.NaN()) // MulVec must overwrite every row, also when Cols = 0
			a.MulVec(got, x)
			for i := range want {
				var s float64
				for j, w := range a.Row(i) {
					s += float64(w * x[j])
				}
				want[i] = s
			}
			if i := diffBits(got, want); i >= 0 {
				t.Fatalf("%dx%d: row %d = %x, one-row loop gives %x", rows, cols, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkMulVec times the forward pass of a 60-input layer. /cold is the
// repository benchmark's 4096 × 60 hidden layer with 24 matrices (47 MB)
// taking turns, so the weights stream from beyond L2 as they do when eight
// ranks share two cores; /warm is one 256 × 60 matrix (120 KB) that stays in
// L2. Their MB/s tell a bandwidth-bound kernel from a shuffle-bound one.
func BenchmarkMulVec(b *testing.B) {
	for _, c := range []struct {
		name               string
		rows, cols, rotate int
	}{{"cold", 4096, 60, 24}, {"warm", 256, 60, 1}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ms := make([]*Matrix, c.rotate)
			for r := range ms {
				ms[r] = NewMatrix(c.rows, c.cols)
				ms[r].FillGlorot(rng, c.cols, c.rows)
			}
			x, dst := NewVector(c.cols), NewVector(c.rows)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			b.SetBytes(int64(8 * c.rows * c.cols))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms[i%c.rotate].MulVec(dst, x)
			}
		})
	}
}
