package live

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// traced is the trace smoke test: a short live run with tracing and
// instruments enabled must produce a schema-valid Chrome trace carrying
// worker spans and controller decisions, and populated instruments
// (staleness histogram, barrier-wait totals, comm counters).
func traced(t *testing.T, run entry, seed int64) {
	t.Helper()
	cfg := liveConfig(t, seed)
	cfg.Iters = 60
	tr := trace.New(trace.NewWallClock(), 1<<14)
	ins := metrics.NewInstruments(cfg.N)
	cfg.Tracer = tr
	cfg.Instruments = ins

	if rep := run(t, cfg, memWorld(cfg.N)); rep.Groups == 0 {
		t.Fatal("no groups executed")
	}

	events := tr.Events()
	kinds := map[trace.Kind]int{}
	ctrlEvents := 0
	for _, ev := range events {
		kinds[ev.Kind]++
		if ev.Track == trace.ControllerTrack {
			ctrlEvents++
		}
	}
	for _, k := range []trace.Kind{
		trace.KCompute, trace.KSignalWait, trace.KCollective,
		trace.KReduceScatter, trace.KAllGather,
		trace.KReady, trace.KGroupFormed, trace.KStaleness,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in the live trace", k)
		}
	}
	if ctrlEvents == 0 {
		t.Error("no controller-track events")
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	n, err := trace.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("live trace fails the schema check: %v", err)
	}
	if n != len(events) {
		t.Fatalf("schema check counted %d events, tracer recorded %d", n, len(events))
	}

	snap := ins.Snapshot()
	if snap.GroupsFormed == 0 || snap.Staleness.Count() == 0 {
		t.Fatalf("live instruments empty: groups=%d staleness=%d",
			snap.GroupsFormed, snap.Staleness.Count())
	}
	if snap.Comms.Ops == 0 || snap.Comms.BytesSent == 0 {
		t.Fatalf("live comm instruments empty: %+v", snap.Comms)
	}
	// The instruments are a fold over these events: the group count is the
	// number of group-formed instants, and each worker's barrier wait is
	// the sum of its signal-wait spans in recording order, bit for bit.
	if snap.GroupsFormed != int64(kinds[trace.KGroupFormed]) {
		t.Fatalf("instruments count %d groups, the trace %d", snap.GroupsFormed, kinds[trace.KGroupFormed])
	}
	waits := make([]float64, cfg.N)
	for _, ev := range events {
		if ev.Kind == trace.KSignalWait {
			waits[ev.Track] += ev.Dur
		}
	}
	var waited float64
	for w, s := range snap.BarrierWait {
		waited += s
		if math.Float64bits(s) != math.Float64bits(waits[w]) {
			t.Errorf("worker %d: barrier wait %v, signal-wait spans sum to %v", w, s, waits[w])
		}
	}
	if waited <= 0 {
		t.Fatal("no barrier-wait time recorded")
	}
}

// TestInstrumentsNeedTracer: instruments fold the tracer's events, so a
// configuration with instruments and no tracer is refused before any rank
// starts.
func TestInstrumentsNeedTracer(t *testing.T) {
	cfg := liveConfig(t, 1)
	cfg.Instruments = metrics.NewInstruments(cfg.N)
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Tracer") {
		t.Fatalf("Instruments without Tracer: err = %v, want a refusal naming Tracer", err)
	}
	if _, err := Run(cfg, memWorld(cfg.N)); err == nil {
		t.Fatal("Run accepted Instruments without a Tracer")
	}
	cfg.Tracer = trace.New(trace.NewWallClock(), 0)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraced(t *testing.T) { traced(t, runBounded, 11) }

// The RunWorker path: control frames share the data world.
func TestRunTracedMultiProcessPath(t *testing.T) { traced(t, runWorkersFolded, 13) }
