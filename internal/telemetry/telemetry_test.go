package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// ready feeds in worker w's ready stamp for iteration iter at ts, with the
// queue depth after it.
func ready(in *metrics.Instruments, w int32, iter int32, ts float64, depth int64) {
	in.Observe(trace.Event{Kind: trace.KReady, Track: w, Iter: iter, TS: ts, A: depth})
}

// observeGroup feeds in the events the controller records when it forms
// group seq at release: the formation, then each member's staleness at
// iteration seq. A member arrived at its ready stamp for that iteration.
func observeGroup(in *metrics.Instruments, seq int64, release float64, members []int32, stale []int64) {
	in.Observe(trace.Event{Kind: trace.KGroupFormed, Track: trace.ControllerTrack, Iter: int32(seq), TS: release, A: seq, B: int64(len(members))})
	for i, w := range members {
		in.Observe(trace.Event{Kind: trace.KStaleness, Track: w, Iter: int32(seq), A: stale[i], B: seq})
	}
}

func sampleInstruments() *metrics.Instruments {
	in := metrics.NewInstruments(3)
	// Group 1: worker 2 arrives 0.75s after worker 0.
	ready(in, 0, 1, 0, 2)
	ready(in, 2, 1, 0.75, 5)
	observeGroup(in, 1, 0.75, []int32{0, 2}, []int64{0, 0})
	// Group 2, bridged: no member has a ready stamp at its iteration.
	observeGroup(in, 2, 1, []int32{0, 1}, []int64{1, 3})
	in.Observe(trace.Event{Kind: trace.KBridged, Track: trace.ControllerTrack, A: 2})
	in.Observe(trace.Event{Kind: trace.KDeferred, Track: trace.ControllerTrack})
	in.Observe(trace.Event{Kind: trace.KSignalWait, Track: 0, Dur: 0.5})
	in.Observe(trace.Event{Kind: trace.KSignalWait, Track: 2, Dur: 1.25})
	in.SetSyncGauges(4, 1)
	in.AddComms(metrics.CommStats{
		Ops: 7, BytesSent: 1000, BytesRecv: 900, Segments: 14,
		Retries: 1, Timeouts: 2, Aborts: 0,
		ReduceScatterS: 0.75, AllGatherS: 0.5,
	})
	return in
}

func TestWriteMetricsRendersEverything(t *testing.T) {
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, sampleInstruments().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE preduce_staleness histogram",
		`preduce_staleness_bucket{le="0"} 2`,
		`preduce_staleness_bucket{le="1"} 3`,
		`preduce_staleness_bucket{le="3"} 4`,
		`preduce_staleness_bucket{le="+Inf"} 4`,
		"preduce_staleness_sum 4",
		"preduce_staleness_count 4",
		"preduce_staleness_p50 0",
		"preduce_staleness_p95 3",
		"preduce_staleness_max 3",
		"preduce_queue_depth 5",
		`preduce_barrier_wait_seconds_total{worker="0"} 0.5`,
		`preduce_barrier_wait_seconds_total{worker="1"} 0`,
		`preduce_barrier_wait_seconds_total{worker="2"} 1.25`,
		"preduce_sync_max_contact_age 4",
		"preduce_sync_components 1",
		"preduce_groups_formed_total 2",
		"preduce_group_interventions_total 1",
		"preduce_group_deferrals_total 1",
		"preduce_comm_ops_total 7",
		"preduce_comm_sent_bytes_total 1000",
		"preduce_comm_recv_bytes_total 900",
		"preduce_comm_segments_total 14",
		"preduce_comm_retries_total 1",
		"preduce_comm_timeouts_total 2",
		"preduce_comm_aborts_total 0",
		"preduce_comm_reduce_scatter_seconds_total 0.75",
		"preduce_comm_all_gather_seconds_total 0.5",
		`preduce_worker_wait_seconds_total{worker="0"} 0.75`,
		`preduce_worker_wait_seconds_total{worker="2"} 0`,
		`preduce_worker_blame_seconds_total{worker="2"} 0.75`,
		`preduce_worker_blame_seconds_total{worker="1"} 0`,
		`preduce_worker_critical_total{worker="2"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out)
		}
	}
	// The EWMA is (1−0.9)·0.75 with float rounding; assert the stable
	// prefix rather than the exact decimal tail.
	if !strings.Contains(out, `preduce_worker_blame_recent{worker="2"} 0.07`) {
		t.Error("missing recent-blame gauge for the critical worker")
	}
	// No bucket is rendered past the maximum observed value.
	if strings.Contains(out, `preduce_staleness_bucket{le="4"}`) {
		t.Error("histogram rendered buckets past the max observation")
	}
}

func TestWriteMetricsDeterministic(t *testing.T) {
	in := sampleInstruments()
	var a, b bytes.Buffer
	if err := metrics.WritePrometheus(&a, in.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WritePrometheus(&b, in.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("metrics rendering is not deterministic for a fixed snapshot")
	}
}

func TestWriteScoreboard(t *testing.T) {
	var buf bytes.Buffer
	if err := metrics.WriteScoreboard(&buf, sampleInstruments().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header, column row, then one line per worker with the blamed
	// worker (2) on top.
	if len(lines) != 5 {
		t.Fatalf("scoreboard has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "groups formed: 2") {
		t.Fatalf("missing group count header: %q", lines[0])
	}
	if fields := strings.Fields(lines[2]); len(fields) == 0 || fields[0] != "2" {
		t.Fatalf("top scoreboard rank = %v, want 2:\n%s", fields, out)
	}
	var again bytes.Buffer
	if err := metrics.WriteScoreboard(&again, sampleInstruments().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if out != again.String() {
		t.Fatal("scoreboard rendering is not deterministic")
	}

	// Empty snapshot degrades gracefully.
	buf.Reset()
	var nilIns *metrics.Instruments
	if err := metrics.WriteScoreboard(&buf, nilIns.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no per-worker blame data") {
		t.Fatalf("empty scoreboard: %q", buf.String())
	}
}

func TestWriteMetricsStopsOnWriteError(t *testing.T) {
	if err := metrics.WritePrometheus(failWriter{}, sampleInstruments().Snapshot()); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("sink full") }

func TestServeEndpoint(t *testing.T) {
	ep, err := Serve("127.0.0.1:0", sampleInstruments(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	resp, err := http.Get("http://" + ep.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(string(body), "preduce_groups_formed_total 2") {
		t.Fatalf("/metrics body missing counters:\n%s", body)
	}

	resp, err = http.Get("http://" + ep.Addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}

	if err := ep.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestHandlerNilInstruments: the endpoint stays serveable before the run
// wires instruments in — a nil *Instruments renders an all-zero snapshot.
func TestHandlerNilInstruments(t *testing.T) {
	ep, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	resp, err := http.Get("http://" + ep.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "preduce_staleness_count 0") {
		t.Fatalf("nil-instrument metrics unexpected:\n%s", body)
	}
}
