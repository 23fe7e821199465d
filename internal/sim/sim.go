// Package sim provides the deterministic discrete-event engine that stands in
// for the paper's physical cluster. Virtual time is a float64 in seconds;
// events fire in (time, insertion) order, so identical seeds give identical
// runs regardless of host scheduling. The engine is single-goroutine by
// design: handlers run sequentially, which keeps every strategy's state
// machine free of locks and makes heterogeneity experiments reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Time is virtual time in seconds.
type Time = float64

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	stopped bool
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it always indicates a broken strategy state machine.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d seconds from now. Negative d panics.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// Stop makes Run return after the current handler. Pending events stay
// queued; a subsequent Run resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called since the last Run.
func (e *Engine) Stopped() bool { return e.stopped }

// Run fires events in order until the queue drains or Stop is called.
// It returns the number of events processed in this call.
func (e *Engine) Run() int {
	e.stopped = false
	n := 0
	for len(e.events) > 0 && !e.stopped {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn()
		n++
	}
	return n
}

// Stream returns a deterministic RNG derived from base and id. Each worker,
// sampler and strategy takes its own stream so adding a consumer never
// perturbs the draws of another.
func Stream(base int64, id int64) *rand.Rand {
	// SplitMix64-style mix keeps nearby (base, id) pairs uncorrelated.
	z := uint64(base)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}
