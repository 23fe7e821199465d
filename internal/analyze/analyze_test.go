package analyze

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

func TestPhaseNames(t *testing.T) {
	for p := Phase(0); p < NumPhase; p++ {
		if p.String() == "" || strings.HasPrefix(p.String(), "phase(") {
			t.Fatalf("phase %d has no name", p)
		}
	}
}

func TestPartitionPrecedence(t *testing.T) {
	// compute [0,2) overlaps group-wait [1,4): compute wins the overlap.
	spans := []phaseSpan{
		{PhaseCompute, 0, 2},
		{PhaseGroupWait, 1, 4},
	}
	ph := partition(spans, 0, 5)
	if ph[PhaseCompute] != 2 {
		t.Fatalf("compute = %v, want 2", ph[PhaseCompute])
	}
	if ph[PhaseGroupWait] != 2 {
		t.Fatalf("group-wait = %v, want 2 (overlap yields to compute)", ph[PhaseGroupWait])
	}
	if ph[PhaseOther] != 1 {
		t.Fatalf("other = %v, want 1 (uncovered [4,5))", ph[PhaseOther])
	}
}

func TestPartitionSumsExactly(t *testing.T) {
	spans := []phaseSpan{
		{PhaseCompute, 0.1, 0.30000000007},
		{PhaseComm, 0.25, 0.4},
		{PhaseSignalWait, 0.4, 0.70000000013},
		{PhaseGroupWait, 0.65, 1.1},
		{PhaseRetry, 1.3, 1.9},
	}
	start, end := 0.05, 2.0000000003
	ph := partition(spans, start, end)
	sum := 0.0
	for _, v := range ph {
		sum += v
	}
	if d := math.Abs(sum - (end - start)); d > 1e-9 {
		t.Fatalf("phase sum off by %g", d)
	}
	// Spans clipped to the window, precedence respected.
	if ph[PhaseCompute] <= 0 || ph[PhaseComm] <= 0 || ph[PhaseRetry] <= 0 {
		t.Fatalf("unexpected zero phases: %+v", ph)
	}
}

func TestPartitionOutsideWindowClipped(t *testing.T) {
	spans := []phaseSpan{{PhaseCompute, -5, 100}}
	ph := partition(spans, 1, 3)
	if ph[PhaseCompute] != 2 {
		t.Fatalf("compute = %v, want full window 2", ph[PhaseCompute])
	}
}

func TestVoteOffset(t *testing.T) {
	ivs := []interval{{1, 2}, {1.5, 2.5}, {10, 11}}
	off, agree, lo, hi := voteOffset(ivs)
	if agree != 2 {
		t.Fatalf("agree = %d, want 2", agree)
	}
	if lo != 1.5 || hi != 2 {
		t.Fatalf("region [%v,%v], want [1.5,2]", lo, hi)
	}
	if off < 1.5 || off > 2 {
		t.Fatalf("offset %v outside agreed region", off)
	}
}

func TestVoteOffsetSingle(t *testing.T) {
	off, agree, _, _ := voteOffset([]interval{{3, 5}})
	if agree != 1 || off != 4 {
		t.Fatalf("got off=%v agree=%d, want midpoint 4 agree 1", off, agree)
	}
}

func TestParseJSONLRoundTrip(t *testing.T) {
	events := []trace.Event{
		{TS: 1.25, Dur: 0.5, Kind: trace.KCompute, Track: 2, Iter: 7, Origin: 2, A: 1, B: 2},
		{TS: 2, Kind: trace.KReady, Track: 0, Iter: 3, Origin: 0, A: 4},
		{TS: 3.000000001, Dur: 0, Kind: trace.KGroupFormed, Track: trace.ControllerTrack, Iter: 9, Origin: trace.NoOrigin, A: 17, B: 4},
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, events, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(got), len(events))
	}
	for i := range events {
		w, g := events[i], got[i]
		if math.Abs(w.TS-g.TS) > 1e-9 || math.Abs(w.Dur-g.Dur) > 1e-9 {
			t.Fatalf("event %d timestamps drifted: %+v vs %+v", i, w, g)
		}
		if w.Kind != g.Kind || w.Track != g.Track || w.Iter != g.Iter || w.Origin != g.Origin || w.A != g.A || w.B != g.B {
			t.Fatalf("event %d fields drifted: %+v vs %+v", i, w, g)
		}
	}
}

func TestParseJSONLRejectsUnknownKind(t *testing.T) {
	if _, err := ParseJSONL(strings.NewReader(`{"ts":1,"dur":0,"kind":"nope","track":0,"iter":0,"rank":0,"a":0,"b":0}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// syntheticWorld builds a host trace and one worker trace with a known
// true clock offset: the worker's file is recorded on a clock that runs
// `skew` seconds behind the host's.
func syntheticWorld(skew float64) []RankTrace {
	var host, worker []trace.Event
	add := func(list *[]trace.Event, ev trace.Event) { *list = append(*list, ev) }
	// Ten iterations: worker signals at t, host accepts at t+0.001,
	// forms a group at t+0.002, worker observes release at t+0.004.
	for i := 0; i < 10; i++ {
		tsig := float64(i) * 0.1 // host clock
		add(&worker, trace.Event{
			TS: tsig - skew, Dur: 0.004, Kind: trace.KSignalWait,
			Track: 1, Iter: int32(i), Origin: 1, A: 0,
		})
		add(&host, trace.Event{TS: tsig + 0.001, Kind: trace.KReady, Track: 1, Iter: int32(i), Origin: 0})
		add(&host, trace.Event{TS: tsig + 0.002, Kind: trace.KGroupFormed, Track: trace.ControllerTrack, Iter: int32(i), Origin: 0, A: int64(i + 1), B: 2})
		add(&host, trace.Event{TS: tsig + 0.002, Kind: trace.KStaleness, Track: 1, Iter: int32(i), Origin: 0, A: 0, B: int64(i + 1)})
		add(&host, trace.Event{TS: tsig + 0.002, Kind: trace.KStaleness, Track: 0, Iter: int32(i), Origin: 0, A: 0, B: int64(i + 1)})
		add(&host, trace.Event{TS: tsig - 0.02, Dur: 0.025, Kind: trace.KSignalWait, Track: 0, Iter: int32(i), Origin: 0})
		add(&host, trace.Event{TS: tsig - 0.02, Kind: trace.KReady, Track: 0, Iter: int32(i), Origin: 0})
	}
	return []RankTrace{{Rank: 0, Events: host}, {Rank: 1, Events: worker}}
}

func TestMergeRecoversKnownOffset(t *testing.T) {
	const skew = 1.75 // worker clock runs 1.75s behind the host
	m, err := Merge(syntheticWorld(skew))
	if err != nil {
		t.Fatal(err)
	}
	if m.HostRank != 0 {
		t.Fatalf("host rank %d, want 0", m.HostRank)
	}
	got := m.Offset(1)
	// The feasible interval per pair is [ready−end, ready−start] =
	// [skew−0.003, skew+0.001]; the vote must land inside it.
	if got < skew-0.003 || got > skew+0.001 {
		t.Fatalf("recovered offset %v, want within [%v, %v]", got, skew-0.003, skew+0.001)
	}
	if _, err := ValidateMerged(m, 0); err != nil {
		t.Fatal(err)
	}
	// Merged stream must be globally ordered.
	for i := 1; i < len(m.Events); i++ {
		if m.Events[i].TS < m.Events[i-1].TS {
			t.Fatalf("merged events out of order at %d", i)
		}
	}
}

func TestMergeRejectsAmbiguity(t *testing.T) {
	w := syntheticWorld(0)
	if _, err := Merge([]RankTrace{w[0], {Rank: -1, Events: w[1].Events}}); err == nil {
		t.Fatal("rankless trace accepted in multi-trace merge")
	}
	if _, err := Merge([]RankTrace{w[0], {Rank: 0, Events: w[1].Events}}); err == nil {
		t.Fatal("duplicate rank accepted")
	}
	if _, err := Merge([]RankTrace{{Rank: 0, Events: w[1].Events}, {Rank: 1, Events: w[1].Events}}); err == nil {
		t.Fatal("merge without a controller trace accepted")
	}
}

func TestAnalyzeSyntheticBlame(t *testing.T) {
	m, err := Merge(syntheticWorld(0.5))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 10 {
		t.Fatalf("reconstructed %d groups, want 10", len(rep.Groups))
	}
	// Rank 1 signals ~21ms after rank 0 every iteration, so it must be
	// the critical rank of every group and own all the blame.
	var blame0, blame1 float64
	for _, rs := range rep.Ranks {
		switch rs.Rank {
		case 0:
			blame0 = rs.Blame
		case 1:
			blame1 = rs.Blame
		}
	}
	if blame1 <= 0 {
		t.Fatalf("rank 1 blame = %v, want > 0", blame1)
	}
	if blame0 != 0 {
		t.Fatalf("rank 0 blame = %v, want 0", blame0)
	}
	for _, g := range rep.Groups {
		if g.Critical != 1 {
			t.Fatalf("group %d critical = %d, want 1", g.Seq, g.Critical)
		}
	}
	// Per-iteration phase partitions must close to the wall time.
	for _, it := range rep.Iters {
		sum := 0.0
		for _, v := range it.Phases {
			sum += v
		}
		if d := math.Abs(sum - it.Wall()); d > 1e-9 {
			t.Fatalf("rank %d iter %d: phase sum off by %g", it.Rank, it.Iter, d)
		}
	}
}

func TestValidateMergedCatchesDisorder(t *testing.T) {
	m, err := Merge(syntheticWorld(0))
	if err != nil {
		t.Fatal(err)
	}
	m.Events[0], m.Events[len(m.Events)-1] = m.Events[len(m.Events)-1], m.Events[0]
	if _, err := ValidateMerged(m, 0); err == nil {
		t.Fatal("disordered timeline accepted")
	}
}

func TestValidateMergedCatchesOrphanMembership(t *testing.T) {
	m, err := Merge(syntheticWorld(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Events {
		if m.Events[i].Kind == trace.KStaleness {
			m.Events[i].B = 9999
			break
		}
	}
	if _, err := ValidateMerged(m, 0); err == nil {
		t.Fatal("orphan staleness membership accepted")
	}
}

// TestAttributionOnlineEqualsOffline: the offline ledger (Analyze over a
// trace) and the online fold (Instruments.Observe as the tracer's sink)
// read one event stream and apply one blame rule, so they give the same
// per-rank numbers bit for bit. Group 1's arrivals are chosen so that the
// wait-difference form Σ (wait_i − wait_c) rounds differently from the
// arrival-difference form Σ (a_c − a_i); group 2 ties (the later-queued
// member is critical); group 3 has a member with no ready instant.
func TestAttributionOnlineEqualsOffline(t *testing.T) {
	nan := math.NaN()
	groups := []struct {
		formed   float64
		members  []int
		iters    []int
		arrivals []float64 // NaN: the member's ready instant is missing
	}{
		{0.5, []int{0, 1, 2}, []int{1, 1, 1}, []float64{0.1, 0.35, 0.45}},
		{1.0, []int{1, 2}, []int{2, 2}, []float64{0.75, 0.75}},
		{1.4, []int{0, 2}, []int{2, 3}, []float64{1.3, nan}},
		{2.05, []int{2, 0, 1}, []int{4, 3, 3}, []float64{1.9, 1.6, 2.0}},
	}
	online := metrics.NewInstruments(3)
	tr := trace.New(trace.FuncClock(func() float64 { return 0 }), 64)
	tr.SetSink(online.Observe)
	for g, grp := range groups {
		seq, maxIter := int64(g+1), 0
		for i, w := range grp.members {
			maxIter = max(maxIter, grp.iters[i])
			if !math.IsNaN(grp.arrivals[i]) {
				tr.InstantAt(trace.KReady, int32(w), int32(grp.iters[i]), grp.arrivals[i], 0, 0)
			}
		}
		tr.InstantAt(trace.KGroupFormed, trace.ControllerTrack, int32(maxIter), grp.formed, seq, int64(len(grp.members)))
		for i, w := range grp.members {
			tr.InstantAt(trace.KStaleness, int32(w), int32(grp.iters[i]), grp.formed, int64(maxIter-grp.iters[i]), seq)
		}
	}
	var jsonl strings.Builder
	if err := trace.WriteJSONL(&jsonl, tr.Events(), tr.Dropped()); err != nil {
		t.Fatal(err)
	}

	events, err := ParseJSONL(strings.NewReader(jsonl.String()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge([]RankTrace{{Rank: -1, Events: events}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	snap := online.Snapshot()
	if len(rep.Ranks) != 3 {
		t.Fatalf("offline ledger has %d ranks, want 3", len(rep.Ranks))
	}
	for _, rs := range rep.Ranks {
		r := rs.Rank
		if math.Float64bits(rs.Blame) != math.Float64bits(snap.Blame[r]) ||
			math.Float64bits(rs.Wait) != math.Float64bits(snap.GroupWait[r]) ||
			int64(rs.Critical) != snap.CriticalN[r] || int64(rs.Groups) != snap.GroupCount[r] {
			t.Errorf("rank %d: offline blame %v wait %v critical %d groups %d; online blame %v wait %v critical %d groups %d",
				r, rs.Blame, rs.Wait, rs.Critical, rs.Groups,
				snap.Blame[r], snap.GroupWait[r], snap.CriticalN[r], snap.GroupCount[r])
		}
	}
	if rep.Groups[1].Critical != 2 || rep.Groups[2].Critical != 0 {
		t.Fatalf("critical members %d, %d; want 2 (tie → later-queued) and 0 (the only known arrival)",
			rep.Groups[1].Critical, rep.Groups[2].Critical)
	}
}
