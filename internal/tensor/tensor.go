// Package tensor provides the dense float64 linear algebra used by the
// training stack: vectors, row-major matrices, and the handful of BLAS-like
// kernels (axpy, gemv, gemm, softmax, norms) that model forward/backward
// passes need. Everything is allocation-conscious: operations write into
// caller-provided destinations so hot training loops can reuse buffers.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector. The zero value is an empty vector.
type Vector []float64

// NewVector returns a zeroed vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Zero sets every element of v to 0.
func (v Vector) Zero() { clear(v) }

// CopyFrom copies src into v. It panics if lengths differ.
func (v Vector) CopyFrom(src Vector) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("tensor: CopyFrom length mismatch %d != %d", len(v), len(src)))
	}
	copy(v, src)
}

// Add adds w to v element-wise, in place. It panics if lengths differ.
// Large vectors run on the AddScaled kernel's worker pool.
func (v Vector) Add(w Vector) { AddScaled(v, w, 1) }

// Sub subtracts w from v element-wise, in place.
func (v Vector) Sub(w Vector) {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] -= w[i]
	}
}

// Scale multiplies v by c in place.
func (v Vector) Scale(c float64) {
	for i := range v {
		v[i] *= c
	}
}

// Axpy computes v += a*w in place. It panics if lengths differ.
// Large vectors run on the AddScaled kernel's worker pool.
func (v Vector) Axpy(a float64, w Vector) { AddScaled(v, w, a) }

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i := range v {
		s += float64(v[i] * w[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// NormInf returns the maximum absolute element of v, or 0 for an empty vector.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ArgMax returns the index of the largest element of v, or -1 if v is empty.
// Ties resolve to the lowest index.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// Softmax writes softmax(v) into dst using the max-shift trick for numerical
// stability. dst may alias v. It panics if lengths differ.
func Softmax(dst, v Vector) {
	checkLen(len(dst), len(v))
	if len(v) == 0 {
		return
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	var z float64
	for i, x := range v {
		e := math.Exp(x - m)
		dst[i] = e
		z += e
	}
	inv := 1 / z
	for i := range dst {
		dst[i] *= inv
	}
}

// LogSumExp returns log(sum_i exp(v_i)) computed stably.
func LogSumExp(v Vector) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	var z float64
	for _, x := range v {
		z += math.Exp(x - m)
	}
	return m + math.Log(z)
}

// WeightedAverage writes the combination sum_i weights[i]*vs[i] into dst.
// All vectors must share dst's length and len(weights) must equal len(vs).
// Every aggregation rule in the codebase — group model averages, barrier
// gradient means, gossip mixing — is a convex instance of this (weights
// summing to 1), and they all share this exact accumulation order (zero,
// then one Axpy per input, in input order): same-seed replays are
// byte-identical only because the float rounding sequence never varies.
func WeightedAverage(dst Vector, weights []float64, vs []Vector) {
	if len(weights) != len(vs) {
		panic(fmt.Sprintf("tensor: WeightedAverage %d weights for %d vectors", len(weights), len(vs)))
	}
	dst.Zero()
	for i, v := range vs {
		dst.Axpy(weights[i], v)
	}
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d != %d", a, b))
	}
}
