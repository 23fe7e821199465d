package collective

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"partialreduce/internal/transport"
)

// runOpts runs AllReduceSumOpts concurrently on every member and returns the
// first error.
func runOpts(eps []*transport.Mem, group []int, opID uint32, datas [][]float64, opt Options) error {
	var wg sync.WaitGroup
	errs := make([]error, len(group))
	for i, r := range group {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = AllReduceSumOpts(eps[r], group, opID, datas[i], opt)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestQuickSegmentedBitIdentical is the tentpole determinism property:
// segmentation only changes message boundaries, never the per-element order
// of operations, so every segment size must be *bit-identical* to the
// one-segment-per-step reference (a segment as long as the whole tensor)
// for random group shapes, vector lengths, and segment sizes — including
// sizes that leave ragged final segments and sizes larger than any chunk.
func TestQuickSegmentedBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := 2 + rng.Intn(6)
		d := 1 + rng.Intn(5000)
		seg := 1 + rng.Intn(700) // deliberately tiny: many ragged segments
		world := transport.NewMem(g)
		group := make([]int, g)
		for i := range group {
			group[i] = i
		}
		plain := make([][]float64, g)
		segged := make([][]float64, g)
		for r := range plain {
			plain[r] = make([]float64, d)
			segged[r] = make([]float64, d)
			for i := range plain[r] {
				v := rng.NormFloat64()
				plain[r][i] = v
				segged[r][i] = v
			}
		}
		if err := runOpts(world, group, 1, plain, Options{SegmentElems: d}); err != nil {
			t.Logf("one segment per step: %v", err)
			return false
		}
		if err := runOpts(world, group, 2, segged, Options{SegmentElems: seg}); err != nil {
			t.Logf("segmented (seg=%d): %v", seg, err)
			return false
		}
		for r := range plain {
			for i := range plain[r] {
				if plain[r][i] != segged[r][i] {
					t.Logf("g=%d d=%d seg=%d rank=%d elem=%d: %g != %g",
						g, d, seg, r, i, plain[r][i], segged[r][i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherSizeMismatch is the regression test for the missing length
// validation: a member whose payload disagrees with the root's expected
// per-member length must fail the gather instead of being stored silently.
func TestGatherSizeMismatch(t *testing.T) {
	eps := transport.NewMem(3)
	group := []int{0, 1, 2}
	lens := map[int]int{0: 4, 1: 2, 2: 4} // rank 1 sends a short vector
	errs := make(map[int]error)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, r := range group {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := make([]float64, lens[r])
			_, err := GatherOpts(eps[r], group, 11, 0, data, Options{})
			mu.Lock()
			errs[r] = err
			mu.Unlock()
		}()
	}
	wg.Wait()
	if errs[0] == nil {
		t.Fatal("root accepted a size-mismatched gather")
	}
	if !strings.Contains(errs[0].Error(), "size") && !strings.Contains(errs[0].Error(), "mismatch") {
		t.Fatalf("root error does not mention the mismatch: %v", errs[0])
	}
}

// TestAllReduceOpStats pins the OpStats accounting: a g-member ring moves
// 2(g−1)/g·n elements per member in each direction, phases take nonzero
// wall time, and the segment count matches the agreed geometry.
func TestAllReduceOpStats(t *testing.T) {
	const g, n, seg = 4, 1000, 64
	world := transport.NewMem(g)
	group := []int{0, 1, 2, 3}
	stats := make([]OpStats, g)
	datas := make([][]float64, g)
	var wg sync.WaitGroup
	errs := make([]error, g)
	for r := 0; r < g; r++ {
		r := r
		datas[r] = make([]float64, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = AllReduceSumOpts(world[r], group, 5, datas[r],
				Options{SegmentElems: seg, Stats: &stats[r]})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	var total OpStats
	for r := range stats {
		s := stats[r]
		if s.Ops != 1 {
			t.Fatalf("rank %d: ops=%d", r, s.Ops)
		}
		if s.BytesSent != s.BytesRecv {
			t.Fatalf("rank %d: sent %d != recv %d (symmetric ring)", r, s.BytesSent, s.BytesRecv)
		}
		// Each member ships every chunk except its final one in each phase:
		// 2(g−1) chunks of n/g-ish elements — between 2(g−1)·floor(n/g) and
		// 2(g−1)·ceil(n/g) elements, 8 bytes each.
		lo := int64(8 * 2 * (g - 1) * (n / g))
		hi := int64(8 * 2 * (g - 1) * ((n + g - 1) / g))
		if s.BytesSent < lo || s.BytesSent > hi {
			t.Fatalf("rank %d: bytes sent %d outside [%d,%d]", r, s.BytesSent, lo, hi)
		}
		if s.Segments < 2*(g-1) {
			t.Fatalf("rank %d: only %d segments for seg=%d", r, s.Segments, seg)
		}
		if s.ReduceScatter <= 0 || s.AllGather <= 0 {
			t.Fatalf("rank %d: zero phase time %v/%v", r, s.ReduceScatter, s.AllGather)
		}
		total.Merge(s)
	}
	if total.Ops != g {
		t.Fatalf("merged ops=%d", total.Ops)
	}
	if got := total.String(); got == "" {
		t.Fatal("empty stats string")
	}
}

// TestAllReduceSteadyStateAllocFree is the CI allocation gate the issue asks
// for: after warmup, a full segmented AllReduceSum over the Mem transport
// performs zero heap allocations on the measured rank.
func TestAllReduceSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const g, n = 4, 1 << 16
	world := transport.NewMem(g)
	group := []int{0, 1, 2, 3}

	// Peer ranks loop in the background, released once per round.
	start := make([]chan struct{}, g)
	done := make([]chan struct{}, g)
	for r := 1; r < g; r++ {
		start[r] = make(chan struct{})
		done[r] = make(chan struct{})
		r := r
		data := make([]float64, n)
		go func() {
			for range start[r] {
				_ = AllReduceSumOpts(world[r], group, 9, data, Options{})
				done[r] <- struct{}{}
			}
		}()
	}
	defer func() {
		for r := 1; r < g; r++ {
			close(start[r])
		}
	}()

	data := make([]float64, n)
	round := func() {
		for r := 1; r < g; r++ {
			start[r] <- struct{}{}
		}
		if err := AllReduceSumOpts(world[0], group, 9, data, Options{}); err != nil {
			t.Fatal(err)
		}
		for r := 1; r < g; r++ {
			<-done[r]
		}
	}
	for i := 0; i < 8; i++ {
		round() // warm every pool (buffers, waiters, kernel workers)
	}
	if allocs := testing.AllocsPerRun(20, round); allocs > 0 {
		t.Fatalf("steady-state AllReduceSum allocates %.1f times per op", allocs)
	}
}

// TestBarrierSynchronizes checks the zero-payload Barrier rewrite: no member
// may leave the barrier before the slowest member has entered it.
func TestBarrierSynchronizes(t *testing.T) {
	const g = 5
	world := transport.NewMem(g)
	group := []int{0, 1, 2, 3, 4}
	var slowestEntered atomic.Bool
	var tooEarly atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, g)
	for r := 1; r < g; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = BarrierOpts(world[r], group, 77, Options{})
			if !slowestEntered.Load() {
				tooEarly.Store(true)
			}
		}()
	}
	// Rank 0 stalls: nobody may complete the barrier yet.
	time.Sleep(20 * time.Millisecond)
	slowestEntered.Store(true)
	errs[0] = BarrierOpts(world[0], group, 77, Options{})
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if tooEarly.Load() {
		t.Fatal("a member left the barrier before the slowest entered")
	}
}
