package analyze

import (
	"bytes"
	"strings"
	"testing"

	"partialreduce/internal/trace"
)

// wrappedHostTrace records five two-member groups (ready, ready,
// group-formed, staleness, staleness per group = 25 events) into a 17-slot
// ring on a deterministic clock, then round-trips the export through the
// JSONL writer and parser. Eight events are overwritten: all of group 1 and
// group 2's ready and group-formed instants, so group 2's two membership
// records are the oldest retained events and refer behind the horizon.
func wrappedHostTrace(t *testing.T) RankTrace {
	t.Helper()
	now := 0.0
	tr := trace.New(trace.FuncClock(func() float64 { now += 0.001; return now }), 17)
	tr.SetOrigin(0)
	for seq := int64(1); seq <= 5; seq++ {
		iter := int32(seq)
		tr.Instant(trace.KReady, 0, iter, 1, 0)
		tr.Instant(trace.KReady, 1, iter, 2, 0)
		tr.Instant(trace.KGroupFormed, trace.ControllerTrack, iter, seq, 2)
		tr.Instant(trace.KStaleness, 0, iter, 0, seq)
		tr.Instant(trace.KStaleness, 1, iter, 0, seq)
	}
	if tr.Dropped() != 8 {
		t.Fatalf("fixture drifted: dropped %d, want 8", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr.Events(), tr.Dropped()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"ts":0.009000000,"dur":0.000000000,"kind":"trace-truncated","track":-1,"iter":-1,"rank":0,"a":8,"b":0}`) {
		t.Fatalf("no truncation header: %s", buf.String()[:120])
	}
	events, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return RankTrace{Rank: 0, Events: events}
}

// TestTruncatedReferencesAreNotOrphans: a wrapped ring is the flight
// recorder's normal state. Membership records whose group formed behind the
// rank's horizon validate, and are counted and reported as truncated.
func TestTruncatedReferencesAreNotOrphans(t *testing.T) {
	m, err := Merge([]RankTrace{wrappedHostTrace(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateMerged(m, 0); err != nil {
		t.Fatalf("wrapped trace rejected: %v", err)
	}
	if n, orphan := Truncation(m); n != 2 || orphan != -1 {
		t.Fatalf("Truncation = (%d, %d), want (2, -1)", n, orphan)
	}
	rep, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated != 2 || len(rep.Groups) != 3 {
		t.Fatalf("report: %d truncated, %d groups; want 2 and 3", rep.Truncated, len(rep.Groups))
	}
	var out bytes.Buffer
	if err := WriteReport(&out, rep, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"truncated:   rank 0's ring dropped 8 events before t=0.009000000\n",
		"truncated:   2 membership records reference groups behind a ring horizon\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestTruncationStillCatchesOrphans is the sabotage half: inside the window
// a rank retained, a missing group is corruption whether or not the ring
// wrapped; and without a header nothing is excused at all.
func TestTruncationStillCatchesOrphans(t *testing.T) {
	inside := wrappedHostTrace(t)
	last := len(inside.Events) - 1 // group 5's second membership record
	inside.Events[last].B = 9999
	m, err := Merge([]RankTrace{inside})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateMerged(m, 0); err == nil || !strings.Contains(err.Error(), "unknown group seq 9999") {
		t.Fatalf("missing group inside the retained window: %v", err)
	}

	bare := wrappedHostTrace(t)
	bare.Events = bare.Events[1:] // the same events with no truncation header
	if m, err = Merge([]RankTrace{bare}); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateMerged(m, 0); err == nil {
		t.Fatal("dangling reference accepted on a rank that declared no dropped events")
	}
}
