package tensor

import (
	"runtime"
	"sync"
)

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

// addScaledSerial is the scalar inner loop: dst += a*src (dst = dst + src
// when a == 1, the reduce-scatter case, taking the multiply off the path).
func addScaledSerial(dst, src []float64, a float64) {
	if a == 1 {
		for i, v := range src {
			dst[i] += v
		}
		return
	}
	for i, v := range src {
		dst[i] += a * v
	}
}

// Fused kernels of the weighted ring (collective.ReduceInto) and the one-pass
// gradient (Matrix.SetOuter). Each folds separate full-vector passes into one
// and must round exactly where they rounded: every intermediate goes through
// an explicit float64(...) conversion, which the Go spec rounds on its own, so
// a compiler that contracts x*y + z into a fused multiply-add (GOAMD64=v3,
// arm64) cannot change a bit. Like addScaledSerial, the a == 1 and post == 1
// cases skip the multiply.

// ScaleInto computes dst = a*src element-wise. dst and src must be the same
// slice or not overlap. It panics if lengths differ.
func ScaleInto(dst, src []float64, a float64) {
	checkLen(len(dst), len(src))
	if a == 1 {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = a * v
	}
}

// ScaleAddInto computes dst = (a*x + y) * post element-wise, bit-for-bit what
// Scale(a) on x, Add(y) and Scale(post) produce in three passes. dst may be x
// itself (the in-place ring) but must not otherwise overlap x or y. It panics
// if lengths differ.
func ScaleAddInto(dst, x, y []float64, a, post float64) {
	checkLen(len(dst), len(x))
	checkLen(len(y), len(x))
	dst, y = dst[:len(x)], y[:len(x)]
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
