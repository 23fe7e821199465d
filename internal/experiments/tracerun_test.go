package experiments

import (
	"bytes"
	"testing"

	"partialreduce/internal/trace"
)

// TestTracedRunDeterministic pins the simulator-trace replay guarantee:
// two runs with the same seed must export byte-identical Chrome trace
// JSON (the observability analogue of TestRobustnessPartitionDeterministic
// — the tracer reads the engine's virtual clock and the exporters use
// fixed key order and float formatting, so nothing may differ).
func TestTracedRunDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		_, c, err := TracedRun(Options{Seed: 5, Quick: true}, -1)
		if err != nil {
			t.Fatal(err)
		}
		events := c.Tracer.Events()
		if len(events) == 0 {
			t.Fatal("traced run recorded no events")
		}
		var chrome, jsonl bytes.Buffer
		if err := trace.WriteChrome(&chrome, events); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteJSONL(&jsonl, events, 0); err != nil {
			t.Fatal(err)
		}
		return chrome.Bytes(), jsonl.Bytes()
	}
	c1, j1 := run()
	c2, j2 := run()
	if !bytes.Equal(c1, c2) {
		t.Fatal("same-seed sim runs exported different Chrome traces")
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("same-seed sim runs exported different JSONL traces")
	}
	n, err := trace.ValidateChrome(c1)
	if err != nil {
		t.Fatalf("sim trace fails the schema check: %v", err)
	}
	if n == 0 {
		t.Fatal("sim trace contains no events after metadata")
	}
}

// TestTracedRunCoverage checks the sim timeline carries every layer the
// tentpole instruments: worker compute/wait/phase spans, controller
// decisions, and the satellite-1 modeled phase seconds in CommStats.
func TestTracedRunCoverage(t *testing.T) {
	res, c, err := TracedRun(Options{Seed: 1, Quick: true}, -1)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	ctrlEvents := 0
	for _, ev := range c.Tracer.Events() {
		kinds[ev.Kind]++
		if ev.Track == trace.ControllerTrack {
			ctrlEvents++
		}
	}
	for _, k := range []trace.Kind{
		trace.KCompute, trace.KSignalWait, trace.KGroupWait,
		trace.KReduceScatter, trace.KAllGather,
		trace.KReady, trace.KGroupFormed, trace.KStaleness,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in the sim trace", k)
		}
	}
	if ctrlEvents == 0 {
		t.Error("no controller-track events")
	}

	// Satellite 1: the simulator populates the per-phase comm seconds from
	// its ring cost model (g·ring/2 per phase, symmetric phases).
	if res.Comms.ReduceScatterS <= 0 || res.Comms.AllGatherS <= 0 {
		t.Fatalf("sim phase seconds not populated: rs=%v ag=%v",
			res.Comms.ReduceScatterS, res.Comms.AllGatherS)
	}
	if res.Comms.ReduceScatterS != res.Comms.AllGatherS {
		t.Fatalf("ring phases should be symmetric: rs=%v ag=%v",
			res.Comms.ReduceScatterS, res.Comms.AllGatherS)
	}

	// The controller-attached instruments observed the same run.
	snap := c.Ins.Snapshot()
	if snap.GroupsFormed == 0 || snap.Staleness.Count() == 0 {
		t.Fatalf("sim instruments empty: groups=%d staleness=%d",
			snap.GroupsFormed, snap.Staleness.Count())
	}
	if snap.SyncComponents != 1 {
		t.Errorf("sync graph unhealthy at end of clean run: %d components", snap.SyncComponents)
	}
}
