package collective

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"partialreduce/internal/hetero"
	"partialreduce/internal/testutil"
	"partialreduce/internal/transport"
)

// faultyGroup builds a Faulty-wrapped Mem world.
func faultyGroup(t *testing.T, n int, plan transport.FaultPlan) []*transport.Faulty {
	t.Helper()
	mems := transport.NewMem(n)
	inner := make([]transport.Transport, n)
	for i, ep := range mems {
		inner[i] = ep
	}
	eps, err := transport.NewFaultyWorld(inner, plan)
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// segmented wraps each endpoint in testutil.Segmented, so its rings move
// seg-element segments and its exchange takes only inputs that fit seg; seg
// 0 keeps the transport's own sizes.
func segmented[T transport.Transport](eps []T, seg int) []transport.Transport {
	world := make([]transport.Transport, len(eps))
	for i, ep := range eps {
		world[i] = ep
		if seg > 0 {
			world[i] = testutil.Segmented{Transport: ep, Elems: seg}
		}
	}
	return world
}

func TestRetryPolicyValidate(t *testing.T) {
	bad := []RetryPolicy{
		{MaxAttempts: -1},
		{BaseDelay: -time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted: %+v", i, p)
		}
	}
	good := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good policy rejected: %v", err)
	}
}

// TestRetryBackoffDeterministic: the backoff doubles per retry, uncapped,
// and — because the jitter stream is seeded by (Seed, opID) — is identical
// across runs with the same seed and distinct across op ids.
func TestRetryBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, Seed: 42}
	seq := func(opID uint32) []time.Duration {
		rng := newJitterRNG(p.Seed, opID)
		out := make([]time.Duration, 6)
		for k := range out {
			out[k] = p.backoff(k, rng)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same (seed,op) gave different backoff at %d: %v vs %v", k, a[k], b[k])
		}
		// Base 10ms doubling, jittered by at most ±20%.
		nominal := 10 * time.Millisecond << k
		lo := time.Duration(float64(nominal) * 0.799)
		hi := time.Duration(float64(nominal) * 1.201)
		if a[k] < lo || a[k] > hi {
			t.Fatalf("backoff %d = %v outside jitter band [%v,%v]", k, a[k], lo, hi)
		}
	}
	c := seq(8)
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct op ids produced identical jitter streams")
	}
}

// TestAllReduceRetriesThroughPartition: a timed partition makes the first
// attempt(s) time out; the retry loop backs off and succeeds once the window
// closes, and the result is still the exact element-wise sum. The retry
// traffic shows up in OpStats.
func TestAllReduceRetriesThroughPartition(t *testing.T) {
	const n, d = 2, 64
	eps := faultyGroup(t, n, transport.FaultPlan{
		Partitions: hetero.PartitionSchedule{{Ranks: []int{1}, From: 0, Until: 0.400}},
	})
	group := []int{0, 1}
	datas := make([][]float64, n)
	want := make([]float64, d)
	for r := 0; r < n; r++ {
		datas[r] = make([]float64, d)
		for i := range datas[r] {
			datas[r][i] = float64(r*100 + i)
			want[i] += datas[r][i]
		}
	}
	stats := make([]OpStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = AllReduceSumOpts(eps[r], group, 1, datas[r], Options{
				Timeout: 200 * time.Millisecond,
				Retry:   RetryPolicy{MaxAttempts: 8, BaseDelay: 50 * time.Millisecond, Seed: 11},
				Stats:   &stats[r],
			})
		}()
	}
	wg.Wait()
	var retries, timeouts int64
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		for i := range want {
			if datas[r][i] != want[i] {
				t.Fatalf("rank %d element %d: %v != %v (a retried attempt leaked partial state)", r, i, datas[r][i], want[i])
			}
		}
		if stats[r].Aborts != 0 {
			t.Fatalf("rank %d aborted a collective that eventually succeeded", r)
		}
		retries += stats[r].Retries
		timeouts += stats[r].Timeouts
	}
	if retries == 0 || timeouts == 0 {
		t.Fatalf("partition produced no retry evidence: retries=%d timeouts=%d", retries, timeouts)
	}
}

// nanVectors returns g length-n vectors of NaNs: a destination whose every
// written element is recognisable.
func nanVectors(g, n int) [][]float64 {
	out := make([][]float64, g)
	for r := range out {
		out[r] = make([]float64, n)
		for i := range out[r] {
			out[r][i] = math.NaN()
		}
	}
	return out
}

// TestReduceIntoAbortLeavesSourceIntact: out of place, the input of a
// collective that dies mid reduce-scatter is never destroyed. Rank 2 crashes
// a few segments into the second ring step; rank 0 sees it go down and
// aborts the op for the group (what the live runtime does), which unblocks
// rank 1. Both survivors fail, rank 0 has already reduced received segments
// into dst — and every src still holds its input bit for bit.
func TestReduceIntoAbortLeavesSourceIntact(t *testing.T) {
	const g, n, seg, op = 3, 3000, 100, 7
	// 10 segments per ring step: send 16 dies in the middle of step 1.
	eps := faultyGroup(t, g, transport.FaultPlan{CrashAfterSends: map[int]int{2: 15}})
	world := segmented(eps, seg)
	group := []int{0, 1, 2}
	weights := []float64{0.5, 0.25, 0.25}
	xs := make([][]float64, g)
	for r := range xs {
		xs[r] = make([]float64, n)
		for i := range xs[r] {
			xs[r][i] = float64(r*n+i) - 1000.5
		}
	}
	src, dst := cloneAll(xs), nanVectors(g, n)
	errs := make([]error, g)
	var wg sync.WaitGroup
	for r := range group {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = ReduceInto(world[r], group, op, dst[r], src[r], weights[r], 1, Options{})
			if r == 0 { // what the controller does on a death report: abort at the survivors
				eps[0].AbortOp(op)
				eps[1].AbortOp(op)
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if !transport.IsFailure(err) {
			t.Fatalf("rank %d: want a peer-down/aborted failure, got %v", r, err)
		}
	}
	for r := 0; r < 2; r++ { // the survivors
		if i := diffBits(src[r], xs[r]); i >= 0 {
			t.Fatalf("rank %d: failed reduce wrote src[%d] = %x, was %x", r, i, src[r][i], xs[r][i])
		}
	}
	written := 0
	for _, v := range dst[0] {
		if !math.IsNaN(v) {
			written++
		}
	}
	if written == 0 || written == n {
		t.Fatalf("rank 0 wrote %d of %d dst elements: the op did not die mid reduce-scatter", written, n)
	}
}

// TestReduceIntoRetryTakesNoSnapshot: the first frame 0 → 1 is lost, both
// members time out, and the second tag epoch succeeds. In place, each member
// restores its half-overwritten input from an input-sized pooled snapshot;
// out of place there is nothing to restore — the retry re-reads src — so the
// whole operation allocates less than one input's worth of bytes (pool misses
// are heap allocations, and only segment-sized ones remain). Both reach the
// same bits as the serial reference.
func TestReduceIntoRetryTakesNoSnapshot(t *testing.T) {
	const g, n, seg = 2, 70_000, 512
	group := []int{0, 1}
	weights := []float64{0.75, 0.25}
	xs := make([][]float64, g)
	for r := range xs {
		xs[r] = make([]float64, n)
		for i := range xs[r] {
			xs[r][i] = float64(i%97) - 48 + float64(r)/3
		}
	}
	want := serialReduce(xs, weights, 0.5)

	// retry runs the scenario and returns the bytes it allocated.
	retry := func(dsts, srcs [][]float64) uint64 {
		t.Helper()
		eps := faultyGroup(t, g, transport.FaultPlan{
			LinkFaults: map[[2]int]transport.LinkFault{{0, 1}: {DropFirst: 1}},
		})
		world := segmented(eps, seg)
		stats := make([]OpStats, g)
		errs := make([]error, g)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var wg sync.WaitGroup
		for r := range group {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = ReduceInto(world[r], group, 1, dsts[r], srcs[r], weights[r], 0.5, Options{
					Timeout: 100 * time.Millisecond,
					Retry:   RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, Seed: 22},
					Stats:   &stats[r],
				})
			}()
		}
		wg.Wait()
		runtime.ReadMemStats(&after)
		for r := range group {
			if errs[r] != nil {
				t.Fatalf("rank %d: %v", r, errs[r])
			}
			if stats[r].Retries == 0 {
				t.Fatalf("rank %d never retried: the lost frame did not force a second epoch", r)
			}
			if i := diffBits(dsts[r], want); i >= 0 {
				t.Fatalf("rank %d elem %d: %x != %x (a retried attempt leaked partial state)", r, i, dsts[r][i], want[i])
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}

	// Out of place first: nothing input-sized is pooled yet, so a snapshot
	// could only come from the heap.
	src := cloneAll(xs)
	if grown := retry(nanVectors(g, n), src); grown >= 8*n {
		t.Fatalf("out-of-place retry allocated %d bytes, an input is %d: it took a snapshot", grown, 8*n)
	}
	for r := range src {
		if i := diffBits(src[r], xs[r]); i >= 0 {
			t.Fatalf("rank %d: out-of-place retry wrote src[%d]", r, i)
		}
	}
	inPlace := cloneAll(xs)
	retry(inPlace, inPlace)
}

// TestAllReduceAbortsAfterBudget: a permanently severed link exhausts the
// attempt budget; both members surface transport.ErrTimeout (not a hang) and
// count exactly one abort. The retry budget keeps these 32 elements on the
// ring; TestExchangeAbortsAfterBudget is the same sever without one.
func TestAllReduceAbortsAfterBudget(t *testing.T) {
	const n, d = 2, 32
	eps := faultyGroup(t, n, transport.FaultPlan{
		LinkFaults: map[[2]int]transport.LinkFault{{0, 1}: {Sever: true}},
	})
	group := []int{0, 1}
	stats := make([]OpStats, n)
	errs := make([]error, n)
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				data := make([]float64, d)
				errs[r] = AllReduceSumOpts(eps[r], group, 2, data, Options{
					Timeout: 100 * time.Millisecond,
					Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, Seed: 12},
					Stats:   &stats[r],
				})
			}()
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("severed link hung the collective despite deadlines")
	}
	for r := 0; r < n; r++ {
		if !transport.IsTimeout(errs[r]) {
			t.Fatalf("rank %d: want timeout, got %v", r, errs[r])
		}
		if stats[r].Aborts != 1 {
			t.Fatalf("rank %d aborts = %d, want 1", r, stats[r].Aborts)
		}
		if stats[r].Timeouts < 2 {
			t.Fatalf("rank %d timeouts = %d, want >= 2 (one per attempt)", r, stats[r].Timeouts)
		}
	}
}

// TestTimeoutWithoutRetryFailsFast: a zero RetryPolicy means one attempt —
// the first deadline expiry is final — on the exchange these 16
// elements take by default and on the ring a 1-element segment forces.
func TestTimeoutWithoutRetryFailsFast(t *testing.T) {
	for _, geo := range []struct {
		name string
		seg  int
	}{{"exchange", 0}, {"ring", 1}} {
		t.Run(geo.name, func(t *testing.T) {
			eps := faultyGroup(t, 2, transport.FaultPlan{
				LinkFaults: map[[2]int]transport.LinkFault{{1, 0}: {Sever: true}},
			})
			world := segmented(eps, geo.seg)
			var stats OpStats
			errCh := make(chan error, 1)
			go func() {
				data := make([]float64, 16)
				errCh <- AllReduceSumOpts(world[0], []int{0, 1}, 3, data, Options{
					Timeout: 100 * time.Millisecond,
					Stats:   &stats,
				})
			}()
			// The peer side also runs (it may fail too); we only assert rank 0.
			go func() {
				data := make([]float64, 16)
				AllReduceSumOpts(world[1], []int{0, 1}, 3, data, Options{Timeout: 100 * time.Millisecond})
			}()
			select {
			case err := <-errCh:
				if !transport.IsTimeout(err) {
					t.Fatalf("want timeout, got %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("single-attempt timeout did not fire")
			}
			if stats.Retries != 0 {
				t.Fatalf("zero policy retried %d times", stats.Retries)
			}
			if stats.Aborts != 1 || stats.Timeouts != 1 {
				t.Fatalf("stats = %+v, want 1 timeout and 1 abort", stats)
			}
		})
	}
}
