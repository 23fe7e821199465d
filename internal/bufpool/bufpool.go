// Package bufpool provides the size-classed pool for the data plane's one
// hot buffer type, the []float64 payload vector (the TCP codec moves wire
// bytes through byte views of these, so there are no []byte frames to pool).
// Buffers are recycled through sync.Pool under power-of-two size classes, so
// a steady-state communication loop — the ring collectives stepping over the
// in-process or TCP transport — performs zero heap allocations once the pools
// are warm. (Slice headers are recycled alongside the backing arrays: boxing
// a *[]float64 into sync.Pool's interface is pointer-shaped and
// allocation-free, whereas Put(&local) would heap-allocate a header per call.)
//
// Ownership rules (see DESIGN.md "Data plane"):
//
//   - A buffer from GetFloat64 is owned by the caller until it passes
//     ownership on (the read loop hands a verified payload to the mailbox,
//     which recycles it once copied out) or returns it with PutFloat64.
//   - PutFloat64 must only be called with buffers nothing else can still
//     reference, a byte view of the same memory included. Double-Put is a
//     caller bug and corrupts the pool.
//   - PutFloat64 accepts buffers of any origin; capacities that are not an
//     exact size class are quietly dropped rather than poisoning one.
//   - A payload lent through transport.Lend is never recycled: it is the
//     sender's own slice, and a mailbox that drops or consumes it returns
//     it to its lender, not to the pool. Put there, the pool would hand the
//     sender's memory to a stranger.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// maxClass bounds the pooled capacity: 1 << maxClass elements. Larger
// requests are served by plain make and dropped on Put (a 2^26-float buffer
// is already half a gigabyte).
const maxClass = 26

// classFor returns the smallest power-of-two class index whose capacity
// holds n elements, or -1 when n is out of pooled range.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c > maxClass {
		return -1
	}
	return c
}

// capClass maps an exact power-of-two capacity to its class, or -1.
func capClass(c int) int {
	if c <= 0 || c&(c-1) != 0 {
		return -1
	}
	k := bits.Len(uint(c)) - 1
	if k > maxClass {
		return -1
	}
	return k
}

// f64Misses lets the tests and the benchmark's per-step counter pin down
// steady-state reuse (a warm loop must stop missing).
var f64Misses atomic.Int64

// Float64Misses reports how many GetFloat64 calls fell through to a fresh
// allocation (pool miss or out-of-range size) since process start.
func Float64Misses() int64 { return f64Misses.Load() }

var (
	f64Pools   [maxClass + 1]sync.Pool
	f64Headers = sync.Pool{New: func() any { return new([]float64) }}
)

// GetFloat64 returns a []float64 of length n (capacity a power of two >= n)
// from the pool, allocating only on a miss. Contents are unspecified; callers
// that need zeros must clear it.
func GetFloat64(n int) []float64 {
	c := classFor(n)
	if c < 0 {
		f64Misses.Add(1)
		return make([]float64, n)
	}
	if v := f64Pools[c].Get(); v != nil {
		h := v.(*[]float64)
		buf := (*h)[:n]
		*h = nil
		f64Headers.Put(h)
		return buf
	}
	f64Misses.Add(1)
	return make([]float64, n, 1<<c)
}

// PutFloat64 recycles buf for a future GetFloat64. Buffers whose capacity is
// not an exact class size are dropped; nil is a no-op.
func PutFloat64(buf []float64) {
	c := capClass(cap(buf))
	if c < 0 {
		return
	}
	h := f64Headers.Get().(*[]float64)
	*h = buf[:cap(buf)]
	f64Pools[c].Put(h)
}
