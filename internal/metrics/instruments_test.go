package metrics

import (
	"math"
	"sync"
	"testing"

	"partialreduce/internal/trace"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(8)
	// 50×0, 30×1, 15×2, 5×3 — a typical staleness shape.
	for i, c := range []int{50, 30, 15, 5} {
		for j := 0; j < c; j++ {
			h.Observe(int64(i))
		}
	}
	if h.Count() != 100 || h.Max() != 3 || h.Sum() != 30+2*15+3*5 {
		t.Fatalf("count=%d max=%d sum=%d", h.Count(), h.Max(), h.Sum())
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0, 0}, {0.5, 0}, {0.51, 1}, {0.8, 1}, {0.95, 2}, {0.96, 3}, {1, 3},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	h := NewHistogram(0) // selects span 64
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(-5) // clamps to 0
	counts, overflow := h.Buckets()
	if counts[0] != 1 || overflow != 0 {
		t.Fatalf("negative observation not clamped: %v / %d", counts[0], overflow)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(4)
	h.Observe(2)
	h.Observe(100) // beyond span: overflow bucket
	h.Observe(100)
	_, overflow := h.Buckets()
	if overflow != 2 {
		t.Fatalf("overflow = %d, want 2", overflow)
	}
	if h.Max() != 100 {
		t.Fatalf("Max = %d, want 100", h.Max())
	}
	// Overflow observations resolve quantiles to Max.
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("Quantile(1) = %d, want 100", got)
	}
}

func TestInstrumentsNilSafe(t *testing.T) {
	var in *Instruments
	in.SetSyncGauges(2, 1)
	in.RecordPolicyDecision(3, true)
	in.AddComms(CommStats{Ops: 1})
	snap := in.Snapshot()
	if snap == nil || snap.Staleness == nil || snap.Staleness.Count() != 0 {
		t.Fatal("nil instruments snapshot not empty")
	}
}

// observeGroup feeds in the events of one formed group, as the controller
// records them: each member's KReady at iteration seq (skipped where its
// arrival is NaN), the KGroupFormed at release, one KStaleness per member.
func observeGroup(in *Instruments, seq int64, release float64, members []int, arrivals []float64) {
	for i, w := range members {
		if !math.IsNaN(arrivals[i]) {
			in.Observe(trace.Event{Kind: trace.KReady, Track: int32(w), Iter: int32(seq), TS: arrivals[i], A: int64(i + 1)})
		}
	}
	in.Observe(trace.Event{Kind: trace.KGroupFormed, Track: trace.ControllerTrack, Iter: int32(seq), TS: release, A: seq, B: int64(len(members))})
	for _, w := range members {
		in.Observe(trace.Event{Kind: trace.KStaleness, Track: int32(w), Iter: int32(seq), B: seq})
	}
}

func TestInstrumentsSnapshot(t *testing.T) {
	in := NewInstruments(3)
	for _, ev := range []trace.Event{
		{Kind: trace.KStaleness, Track: 0, A: 0},
		{Kind: trace.KStaleness, Track: 1, A: 2},
		{Kind: trace.KReady, Track: 2, Iter: 1, TS: 1.5, A: 4},
		{Kind: trace.KSignalWait, Track: 1, Dur: 0.25},
		{Kind: trace.KSignalWait, Track: 1, Dur: 0.25},
		{Kind: trace.KSignalWait, Track: 7, Dur: 1},             // out of range: ignored
		{Kind: trace.KSignalWait, Track: trace.ControllerTrack}, // not a worker: ignored
		{Kind: trace.KGroupFormed, Track: trace.ControllerTrack, A: 1, B: 2},
		{Kind: trace.KGroupFormed, Track: trace.ControllerTrack, A: 2, B: 2},
		{Kind: trace.KBridged, Track: trace.ControllerTrack, A: 2},
		{Kind: trace.KDeferred, Track: trace.ControllerTrack},
		{Kind: trace.KCompute, Track: 0, Dur: 9}, // feeds nothing
	} {
		in.Observe(ev)
	}
	in.SetSyncGauges(3, 1)
	in.AddComms(CommStats{Ops: 2, BytesSent: 100, ReduceScatterS: 0.5})
	in.AddComms(CommStats{Ops: 1, AllGatherS: 0.25})

	snap := in.Snapshot()
	if snap.Staleness.Count() != 2 || snap.Staleness.Max() != 2 {
		t.Fatalf("staleness snapshot: count=%d max=%d", snap.Staleness.Count(), snap.Staleness.Max())
	}
	if snap.QueueDepthSample != 4 {
		t.Fatalf("queue depth sample %v, want 4", snap.QueueDepthSample)
	}
	if len(snap.BarrierWait) != 3 || snap.BarrierWait[1] != 0.5 || snap.BarrierWait[0] != 0 {
		t.Fatalf("barrier wait %v", snap.BarrierWait)
	}
	if snap.MaxContactAge != 3 || snap.SyncComponents != 1 {
		t.Fatalf("sync gauges (%d, %d)", snap.MaxContactAge, snap.SyncComponents)
	}
	if snap.GroupsFormed != 2 || snap.Interventions != 1 || snap.Deferrals != 1 {
		t.Fatalf("counters (%d, %d, %d)", snap.GroupsFormed, snap.Interventions, snap.Deferrals)
	}
	if snap.Comms.Ops != 3 || snap.Comms.BytesSent != 100 ||
		snap.Comms.ReduceScatterS != 0.5 || snap.Comms.AllGatherS != 0.25 {
		t.Fatalf("comms %+v", snap.Comms)
	}

	// The snapshot is a deep copy: mutating the live instruments afterwards
	// must not change it.
	in.Observe(trace.Event{Kind: trace.KStaleness, A: 5})
	if snap.Staleness.Count() != 2 {
		t.Fatal("snapshot histogram aliases the live one")
	}
}

// TestObserveEpoch: the epoch starts at the controller's first world view
// and follows A of every membership event.
func TestObserveEpoch(t *testing.T) {
	in := NewInstruments(2)
	if got := in.Snapshot().Epoch; got != 1 {
		t.Fatalf("fresh epoch %d, want 1", got)
	}
	for i, k := range []trace.Kind{trace.KWorkerJoin, trace.KWorkerDrain, trace.KWorkerDecommission, trace.KWorkerDead} {
		in.Observe(trace.Event{Kind: k, Track: 1, A: int64(i + 2)})
		if got := in.Snapshot().Epoch; got != int64(i+2) {
			t.Fatalf("after %v: epoch %d, want %d", k, got, i+2)
		}
	}
}

func TestObserveGroupRelease(t *testing.T) {
	in := NewInstruments(4)
	// Worker 2 arrives last: members 0 and 1 each waited 0.4s and 0.2s
	// longer than it did, so 2 is charged 0.6s of their time.
	observeGroup(in, 1, 0.4, []int{0, 1, 2}, []float64{0, 0.2, 0.4})
	snap := in.Snapshot()
	if math.Abs(snap.Blame[2]-0.6) > 1e-12 {
		t.Fatalf("critical blame %v, want 0.6", snap.Blame[2])
	}
	if snap.Blame[0] != 0 || snap.Blame[1] != 0 {
		t.Fatalf("non-critical blame %v %v, want 0", snap.Blame[0], snap.Blame[1])
	}
	if snap.CriticalN[2] != 1 || snap.CriticalN[0] != 0 {
		t.Fatalf("critical counts %v", snap.CriticalN)
	}
	if snap.GroupWait[0] != 0.4 || snap.GroupWait[1] != 0.2 || snap.GroupWait[2] != 0 {
		t.Fatalf("group waits %v", snap.GroupWait)
	}
	if snap.GroupCount[0] != 1 || snap.GroupCount[3] != 0 {
		t.Fatalf("group counts %v", snap.GroupCount)
	}
	if snap.BlameEWMA[2] <= 0 || snap.BlameEWMA[0] != 0 {
		t.Fatalf("blame EWMA %v", snap.BlameEWMA)
	}

	// A second group with a different critical member moves the EWMA:
	// worker 2's recent blame decays, worker 0's rises.
	prev := snap.BlameEWMA[2]
	observeGroup(in, 2, 0.3, []int{0, 2}, []float64{0.3, 0})
	snap = in.Snapshot()
	if snap.Blame[0] != 0.3 {
		t.Fatalf("blame[0] = %v, want 0.3", snap.Blame[0])
	}
	if snap.BlameEWMA[2] >= prev {
		t.Fatalf("straggler EWMA did not decay: %v -> %v", prev, snap.BlameEWMA[2])
	}
	if snap.BlameEWMA[0] <= 0 {
		t.Fatalf("new straggler EWMA %v, want > 0", snap.BlameEWMA[0])
	}

	// Degenerate inputs are ignored or tolerated: a member outside the
	// world never completes its group, a staleness record of another group
	// or a ready stamp at another iteration joins nothing, and a member
	// with no ready stamp is an unknown arrival: the one known arrival leads.
	observeGroup(in, 3, 2, []int{9}, []float64{0})
	in.Observe(trace.Event{Kind: trace.KStaleness, Track: 0, Iter: 3, B: 7})
	observeGroup(in, 4, 0.1, []int{1, 3}, []float64{0, math.NaN()})
	in.Observe(trace.Event{Kind: trace.KReady, Track: 0, Iter: 4, TS: 5})
	in.Observe(trace.Event{Kind: trace.KGroupFormed, A: 5, B: 1, TS: 6})
	in.Observe(trace.Event{Kind: trace.KStaleness, Track: 0, Iter: 5, B: 5})
	snap2 := in.Snapshot()
	if snap2.Blame[0] != snap.Blame[0] || snap2.GroupWait[0] != snap.GroupWait[0] {
		t.Fatal("degenerate release changed worker 0's blame or wait")
	}
	if math.Abs(snap2.GroupWait[1]-(0.2+0.1)) > 1e-12 {
		t.Fatalf("unknown-critical release must still record waits: %v", snap2.GroupWait)
	}
	if snap2.CriticalN[1] != 1 || snap2.Blame[1] != 0 || snap2.CriticalN[3] != 0 {
		t.Fatal("the one known arrival must be critical, at no charge")
	}
	if snap2.GroupCount[3] != 1 || snap2.GroupCount[0] != 3 {
		t.Fatalf("group counts %v", snap2.GroupCount)
	}
}

// TestInstrumentsConcurrent: the fold runs on whichever goroutine records,
// under the tracer's lock, while another goroutine snapshots.
func TestInstrumentsConcurrent(t *testing.T) {
	const workers, rounds = 4, 500
	in := NewInstruments(workers)
	tr := trace.New(trace.FuncClock(func() float64 { return 1 }), 64)
	tr.SetSink(in.Observe)
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
				_ = in.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tr.Instant(trace.KReady, int32(w), int32(i), 2, 0)
				tr.Instant(trace.KStaleness, int32(w), int32(i), int64(i%5), 0)
				tr.SpanAt(trace.KSignalWait, int32(w), int32(i), 0, 0.001, 0, 0)
				tr.Instant(trace.KGroupFormed, trace.ControllerTrack, int32(i), int64(w*rounds+i+1), 2)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-snapped
	snap := in.Snapshot()
	if snap.Staleness.Count() != workers*rounds || snap.GroupsFormed != workers*rounds {
		t.Fatalf("staleness count %d, groups %d, want %d each", snap.Staleness.Count(), snap.GroupsFormed, workers*rounds)
	}
	if snap.QueueDepthSample != 2 {
		t.Fatalf("queue depth sample %v, want 2", snap.QueueDepthSample)
	}
	for w, s := range snap.BarrierWait {
		if math.Abs(s-0.001*rounds) > 1e-9 {
			t.Fatalf("worker %d barrier wait %v, want %v", w, s, 0.001*rounds)
		}
	}
}

func TestAttribute(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		arrivals []float64
		critical int
		induced  float64
	}{
		{nil, -1, 0},
		{[]float64{nan, nan}, -1, 0},
		{[]float64{2}, 0, 0},
		{[]float64{1, 3, 2}, 1, 3},
		{[]float64{3, 1, 3}, 2, 2},   // tie: the later-queued member
		{[]float64{1, nan, 4}, 2, 3}, // unknown arrivals neither lead nor pay
		{[]float64{nan, 0.5, nan}, 1, 0},
	} {
		crit, induced := Attribute(c.arrivals)
		if crit != c.critical || induced != c.induced {
			t.Errorf("Attribute(%v) = (%d, %v), want (%d, %v)", c.arrivals, crit, induced, c.critical, c.induced)
		}
	}
}
