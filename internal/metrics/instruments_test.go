package metrics

import (
	"math"
	"sync"
	"testing"
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
	if got := h.Mean(); got != 0.75 {
		t.Errorf("Mean = %v, want 0.75", got)
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	h := NewHistogram(0) // selects span 64
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
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

func TestSeriesRing(t *testing.T) {
	s := NewSeries(4)
	if _, _, ok := s.Last(); ok {
		t.Fatal("empty series reported a last point")
	}
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(10*i))
	}
	if s.Len() != 4 {
		t.Fatalf("len=%d", s.Len())
	}
	ts, vs := s.Points()
	for i := range ts {
		if want := float64(6 + i); ts[i] != want || vs[i] != 10*want {
			t.Fatalf("point %d = (%v, %v), want (%v, %v)", i, ts[i], vs[i], want, 10*want)
		}
	}
	if tLast, vLast, ok := s.Last(); !ok || tLast != 9 || vLast != 90 {
		t.Fatalf("Last = (%v, %v, %v)", tLast, vLast, ok)
	}
}

func TestInstrumentsNilSafe(t *testing.T) {
	var in *Instruments
	in.ObserveStaleness(1)
	in.RecordQueueDepth(0, 3)
	in.AddBarrierWait(0, 1)
	in.SetSyncGauges(2, 1)
	in.CountGroup(true)
	in.CountDeferral()
	in.AddComms(CommStats{Ops: 1})
	in.AddGroupRelease([]int{0, 1}, []float64{0, 0.5}, 0.5)
	snap := in.Snapshot()
	if snap == nil || snap.Staleness == nil || snap.Staleness.Count() != 0 {
		t.Fatal("nil instruments snapshot not empty")
	}
}

func TestInstrumentsSnapshot(t *testing.T) {
	in := NewInstruments(3)
	in.ObserveStaleness(0)
	in.ObserveStaleness(2)
	in.RecordQueueDepth(1.5, 4)
	in.AddBarrierWait(1, 0.25)
	in.AddBarrierWait(1, 0.25)
	in.AddBarrierWait(7, 1)  // out of range: ignored
	in.AddBarrierWait(0, -1) // non-positive: ignored
	in.SetSyncGauges(3, 1)
	in.CountGroup(false)
	in.CountGroup(true)
	in.CountDeferral()
	in.AddComms(CommStats{Ops: 2, BytesSent: 100, ReduceScatterS: 0.5})
	in.AddComms(CommStats{Ops: 1, AllGatherS: 0.25})

	snap := in.Snapshot()
	if snap.Staleness.Count() != 2 || snap.Staleness.Max() != 2 {
		t.Fatalf("staleness snapshot: count=%d max=%d", snap.Staleness.Count(), snap.Staleness.Max())
	}
	if snap.QueueDepthSample != 4 || snap.QueueDepthNow != 1.5 {
		t.Fatalf("queue depth sample (%v @ %v)", snap.QueueDepthSample, snap.QueueDepthNow)
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
	in.ObserveStaleness(5)
	if snap.Staleness.Count() != 2 {
		t.Fatal("snapshot histogram aliases the live one")
	}
}

func TestAddGroupRelease(t *testing.T) {
	in := NewInstruments(4)
	// Worker 2 arrives last: members 0 and 1 each waited 0.4s and 0.2s
	// longer than it did, so 2 is charged 0.6s of their time.
	in.AddGroupRelease([]int{0, 1, 2}, []float64{0, 0.2, 0.4}, 0.4)
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
	in.AddGroupRelease([]int{0, 2}, []float64{0.3, 0}, 0.3)
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

	// Degenerate inputs are ignored or tolerated.
	in.AddGroupRelease(nil, nil, 0)
	in.AddGroupRelease([]int{0}, []float64{1, 2}, 2)               // length mismatch
	in.AddGroupRelease([]int{9}, []float64{0}, 1)                  // out of range
	in.AddGroupRelease([]int{1, 3}, []float64{0, math.NaN()}, 0.1) // member 3's arrival unknown
	snap2 := in.Snapshot()
	if snap2.Blame[0] != snap.Blame[0] {
		t.Fatal("degenerate release changed blame")
	}
	if math.Abs(snap2.GroupWait[1]-(0.2+0.1)) > 1e-12 {
		t.Fatalf("unknown-critical release must still record waits: %v", snap2.GroupWait)
	}
	if snap2.CriticalN[1] != 0 && snap2.CriticalN[3] != 0 {
		t.Fatal("unknown-critical release charged someone")
	}
}

func TestInstrumentsConcurrent(t *testing.T) {
	in := NewInstruments(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				in.ObserveStaleness(int64(i % 5))
				in.RecordQueueDepth(float64(i), 2)
				in.AddBarrierWait(g%4, 0.001)
				in.CountGroup(i%7 == 0)
				_ = in.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := in.Snapshot().Staleness.Count(); got != 8*500 {
		t.Fatalf("staleness count %d, want %d", got, 8*500)
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
