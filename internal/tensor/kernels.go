package tensor

import (
	"runtime"
	"sync"
)

// Element-wise kernels: the AddScaled family, the fused kernels of the
// weighted ring (collective.ReduceInto) and the optimizer's momentum step.
// Each must round exactly where the separate passes it replaced rounded:
// every intermediate goes through an explicit float64(...) conversion, which
// the Go spec rounds on its own, so a compiler that contracts x*y + z into a
// fused multiply-add (arm64 and four other arches; `make fmaguard` checks)
// cannot change a bit. The a == 1 and post == 1 cases skip the multiply.
//
// On amd64 hosts with AVX2 the first len &^ 3 elements go through the
// assembly in kernels_amd64.s, four lanes at a time, and the Go loop of each
// kernel finishes the tail; every other host, and every race build (the
// detector cannot see assembly's accesses), runs the Go loops alone. Each
// lane performs the Go loop's IEEE-754 operations in its order — VMULPD,
// VADDPD, VSUBPD, never an FMA — so the two paths agree bit for bit. The one
// liberty: the assembly multiplies by a or post even when it is 1, which is
// exact for every non-NaN operand (Go never sets flush-to-zero).

// ParallelThreshold is the element count above which the AddScaled-family
// kernels split their work across the package worker pool. Below it the
// fixed cost of waking workers exceeds the arithmetic; the collectives'
// default segment size sits below this on purpose, so the ring inner loop
// stays on the calling goroutine while the live runtime's full-model
// averages (hundreds of thousands of parameters) parallelize.
const ParallelThreshold = 1 << 16

// maxKernelWorkers caps the pool: element-wise kernels are memory-bound, and
// beyond a few cores extra workers only fight over bandwidth.
const maxKernelWorkers = 8

// span is one worker's half-open index range.
type span struct{ lo, hi int }

// kernelPool is a persistent worker pool for element-wise kernels. One
// kernel call runs at a time (mu); the shared operand fields plus per-worker
// span channels keep the dispatch allocation-free — nothing escapes, no
// closures, no per-call WaitGroup.
type kernelPool struct {
	mu   sync.Mutex
	wg   sync.WaitGroup
	dst  []float64
	src  []float64
	a    float64
	reqs []chan span
}

var (
	pool     kernelPool
	poolOnce sync.Once
)

func startPool() {
	n := runtime.GOMAXPROCS(0)
	if n > maxKernelWorkers {
		n = maxKernelWorkers
	}
	if n < 1 {
		n = 1
	}
	pool.reqs = make([]chan span, n)
	for i := range pool.reqs {
		ch := make(chan span, 1)
		pool.reqs[i] = ch
		go func() {
			for s := range ch {
				addScaledSerial(pool.dst[s.lo:s.hi], pool.src[s.lo:s.hi], pool.a)
				pool.wg.Done()
			}
		}()
	}
}

// addScaledSerial is the inner loop of AddScaled: dst += a*src (dst = dst +
// src when a == 1, the reduce-scatter case, taking the multiply off the path).
func addScaledSerial(dst, src []float64, a float64) {
	i := 0
	if useAVX2 && len(src) >= 4 {
		i = len(src) &^ 3
		scaleAddAVX2(dst[:i], src[:i], dst[:i], a, 1)
	}
	dst, src = dst[i:len(src)], src[i:]
	if a == 1 {
		for i, v := range src {
			dst[i] += v
		}
		return
	}
	for i, v := range src {
		dst[i] += float64(a * v)
	}
}

// ScaleInto computes dst = a*src element-wise. dst and src must be the same
// slice or not overlap. It panics if lengths differ.
func ScaleInto(dst, src []float64, a float64) {
	checkLen(len(dst), len(src))
	if a == 1 {
		copy(dst, src)
		return
	}
	i := 0
	if useAVX2 && len(src) >= 4 {
		i = len(src) &^ 3
		scaleAVX2(dst[:i], src[:i], a)
	}
	dst, src = dst[i:len(src)], src[i:]
	for i, v := range src {
		dst[i] = a * v
	}
}

// ScaleAddInto computes dst = (a*x + y) * post element-wise, bit-for-bit what
// Scale(a) on x, Add(y) and Scale(post) produce in three passes. dst may be x
// itself (the in-place ring) or y itself (the exchange's running sum) but must
// not otherwise overlap x or y. It panics if lengths differ.
func ScaleAddInto(dst, x, y []float64, a, post float64) {
	checkLen(len(dst), len(x))
	checkLen(len(y), len(x))
	i := 0
	if useAVX2 && len(x) >= 4 {
		i = len(x) &^ 3
		scaleAddAVX2(dst[:i], x[:i], y[:i], a, post)
	}
	dst, x, y = dst[i:len(x)], x[i:], y[i:len(x)]
	switch {
	case a == 1 && post == 1:
		for i, v := range x {
			dst[i] = v + y[i]
		}
	case a == 1:
		for i, v := range x {
			dst[i] = float64(v+y[i]) * post
		}
	case post == 1:
		for i, v := range x {
			dst[i] = float64(a*v) + y[i]
		}
	default:
		for i, v := range x {
			dst[i] = float64(float64(a*v)+y[i]) * post
		}
	}
}

// AddScaled computes dst += a*src element-wise. It panics if lengths differ.
// Above ParallelThreshold the work is split across the package worker pool;
// because every element is computed independently, the parallel result is
// bit-identical to the serial one — the property the collectives' determinism
// tests rely on. The steady-state dispatch performs no heap allocation.
func AddScaled(dst, src []float64, a float64) {
	checkLen(len(dst), len(src))
	n := len(dst)
	if n < ParallelThreshold {
		addScaledSerial(dst, src, a)
		return
	}
	poolOnce.Do(startPool)
	w := len(pool.reqs)
	if w <= 1 {
		addScaledSerial(dst, src, a)
		return
	}

	pool.mu.Lock()
	pool.dst, pool.src, pool.a = dst, src, a
	// Dispatch: worker i takes [i*per, min((i+1)*per, n)).
	per := (n + w - 1) / w
	pool.wg.Add(w)
	for i := 0; i < w; i++ {
		lo := i * per
		hi := min(lo+per, n)
		if lo >= n {
			pool.wg.Done() // nothing left for this worker
			continue
		}
		pool.reqs[i] <- span{lo: lo, hi: hi}
	}
	pool.wg.Wait()
	pool.dst, pool.src = nil, nil
	pool.mu.Unlock()
}

// MomentumStep applies momentum SGD to every element: v ← μv + (g + λw);
// w ← w − lr·v. w, v and g must have one length.
func MomentumStep(w, v, g []float64, mu, wd, lr float64) {
	checkLen(len(w), len(v))
	checkLen(len(g), len(v))
	i := 0
	if useAVX2 && len(v) >= 4 {
		i = len(v) &^ 3
		momentumAVX2(w[:i], v[:i], g[:i], mu, wd, lr)
	}
	w, v, g = w[i:len(v)], v[i:], g[i:len(v)]
	for i, vi := range v {
		w[i], v[i] = momentumElem(w[i], vi, g[i], mu, wd, lr)
	}
}

// MomentumStepOuter is MomentumStep on an outer product that was never
// materialized, row-major: g[r·len(y)+j] = OuterElem(xs[r], y[j]). w and v
// must have length len(xs)·len(y). The assembly runs the first len(y) &^ 3
// elements of every row, the row loop included; the Go loop finishes each
// row's tail.
func MomentumStepOuter(w, v, xs, y []float64, mu, wd, lr float64) {
	checkLen(len(w), len(v))
	checkLen(len(v), len(xs)*len(y))
	n, c := len(y), 0
	if useAVX2 && n >= 4 {
		c = n &^ 3
		momentumOuterAVX2(w, v, xs, y, mu, wd, lr)
	}
	if c == n {
		return
	}
	for r, x := range xs {
		w, v := w[r*n+c:(r+1)*n], v[r*n+c:(r+1)*n]
		for j, yj := range y[c:] {
			w[j], v[j] = momentumElem(w[j], v[j], OuterElem(x, yj), mu, wd, lr)
		}
	}
}

// momentumElem is the update of one element, shared by both forms of the
// step so that they cannot drift.
func momentumElem(w, v, g, mu, wd, lr float64) (float64, float64) {
	g += float64(wd * w)
	v = float64(mu*v) + g
	return w - float64(lr*v), v
}
