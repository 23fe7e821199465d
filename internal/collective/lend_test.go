package collective

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"partialreduce/internal/transport"
)

// sentFirst wraps an endpoint so that no receive starts before its frame has
// been sent: every frame finds its receiver not yet waiting, and so parks in
// the mailbox, lent or pooled, instead of filling a waiting receive.
type sentFirst struct {
	transport.Transport
	log *sendLog
}

// sendLog is the world's record of the frames sent so far.
type sendLog struct {
	mu   sync.Mutex
	cond *sync.Cond
	sent map[[3]uint64]bool // (from, to, tag)
}

func sentFirstWorld(eps []*transport.Mem) []transport.Transport {
	log := &sendLog{sent: make(map[[3]uint64]bool)}
	log.cond = sync.NewCond(&log.mu)
	world := make([]transport.Transport, len(eps))
	for i, ep := range eps {
		world[i] = sentFirst{Transport: ep, log: log}
	}
	return world
}

func (s sentFirst) record(to int, tag uint64) {
	s.log.mu.Lock()
	s.log.sent[[3]uint64{uint64(s.Rank()), uint64(to), tag}] = true
	s.log.cond.Broadcast()
	s.log.mu.Unlock()
}

func (s sentFirst) Send(to int, tag uint64, payload []float64) error {
	err := s.Transport.Send(to, tag, payload)
	s.record(to, tag)
	return err
}

func (s sentFirst) Lend(to int, tag uint64, payload []float64, loans *transport.Loans) error {
	err := s.Transport.Lend(to, tag, payload, loans)
	s.record(to, tag)
	return err
}

func (s sentFirst) RecvIntoTimeout(from int, tag uint64, dst []float64, timeout time.Duration) (int, error) {
	s.log.mu.Lock()
	for !s.log.sent[[3]uint64{uint64(from), uint64(s.Rank()), tag}] {
		s.log.cond.Wait()
	}
	s.log.mu.Unlock()
	return s.Transport.RecvIntoTimeout(from, tag, dst, timeout)
}

func (s sentFirst) RecvInto(from int, tag uint64, dst []float64) (int, error) {
	return s.RecvIntoTimeout(from, tag, dst, 0)
}

// TestLentRingBitIdentical runs rings in which no receiver is ever waiting
// when its segment is sent, so every segment a ring step lends is read from
// the sender's own slice after the sender has moved on: in place and out of
// place, unit and non-unit weights (whose step-0 segments are copied from
// the reused staging buffer), ragged segments and several segments per
// step. Each result must equal the serial reference bit for bit, and an
// out-of-place source must be unmodified.
func TestLentRingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, c := range []struct {
		g, n, seg int
		inPlace   bool
		weight    float64
	}{
		{2, 1000, 64, false, 0.5},
		{3, 1001, 97, true, 1},
		{4, 4096, 128, false, -0.25},
		{5, 2003, 100, true, 0.2},
		{8, 5000, 211, false, 1},
		{8, 5000, 211, true, 0.125},
	} {
		xs := make([][]float64, c.g)
		weights := make([]float64, c.g)
		for r := range xs {
			weights[r] = c.weight
			xs[r] = make([]float64, c.n)
			for i := range xs[r] {
				xs[r][i] = rng.NormFloat64()
			}
		}
		post := 1 / float64(c.g)
		want := serialReduce(xs, weights, post)
		srcs := cloneAll(xs)
		dsts := srcs
		if !c.inPlace {
			dsts = make([][]float64, c.g)
			for r := range dsts {
				dsts[r] = make([]float64, c.n)
			}
		}
		_, errs := reduceWorld(segmented(sentFirstWorld(transport.NewMem(c.g)), c.seg), 7, dsts, srcs, weights, post, Options{})
		for r := range errs {
			if errs[r] != nil {
				t.Fatalf("%+v rank %d: %v", c, r, errs[r])
			}
			if i := diffBits(dsts[r], want); i >= 0 {
				t.Fatalf("%+v rank %d: element %d = %v, want %v", c, r, i, dsts[r][i], want[i])
			}
			if !c.inPlace {
				if i := diffBits(srcs[r], xs[r]); i >= 0 {
					t.Fatalf("%+v rank %d: source element %d changed", c, r, i)
				}
			}
		}
	}
}
