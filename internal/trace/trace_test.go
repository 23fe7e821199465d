package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stepClock is a deterministic clock advancing by one per reading.
type stepClock struct{ t float64 }

func (c *stepClock) Now() float64 { c.t++; return c.t }

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if got := tr.Now(); got != 0 {
		t.Fatalf("nil Now = %v, want 0", got)
	}
	tr.Span(KCompute, 0, 0, 0, 0, 0)
	tr.SpanAt(KCompute, 0, 0, 0, 1, 0, 0)
	tr.Instant(KReady, 0, 0, 0, 0)
	tr.InstantAt(KReady, 0, 0, 0, 0, 0)
	tr.SetSink(func(Event) { t.Fatal("nil tracer called its sink") })
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatalf("nil tracer retained state: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

// TestDisabledTracerZeroAllocs pins the allocgate-preserving property: with
// tracing off (nil *Tracer), every recording call is a nil check and must
// not touch the heap.
func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		start := tr.Now()
		tr.Span(KCompute, 3, 7, start, 1, 2)
		tr.Instant(KReady, 3, 7, 1, 2)
		tr.SpanAt(KReduceScatter, 3, 7, 0, 0.5, 1, 2)
		tr.InstantAt(KTimeout, 3, 7, 1.5, 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates: %v allocs/op", allocs)
	}
}

// TestEnabledTracerSteadyStateZeroAllocs: recording into the pre-allocated
// ring must not allocate either — the Event is pointer-free and copied by
// value.
func TestEnabledTracerSteadyStateZeroAllocs(t *testing.T) {
	tr := New(FuncClock(func() float64 { return 1 }), 128)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span(KCompute, 0, 0, 0.5, 1, 2)
		tr.Instant(KReady, 0, 0, 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("enabled tracer steady state allocates: %v allocs/op", allocs)
	}
}

func TestRingWrapKeepsMostRecent(t *testing.T) {
	clk := &stepClock{}
	tr := New(clk, 4)
	for i := 0; i < 10; i++ {
		tr.Instant(KReady, int32(i), -1, int64(i), 0)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.A != want {
			t.Fatalf("event %d: A = %d, want %d (oldest-first order)", i, ev.A, want)
		}
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events out of chronological order at %d", i)
		}
	}
}

// TestSinkSeesEveryEvent: the sink sees each event as recorded, origin
// stamped and duration clamped, including those the ring later overwrites;
// a nil sink detaches.
func TestSinkSeesEveryEvent(t *testing.T) {
	tr := New(&stepClock{}, 2)
	tr.SetOrigin(3)
	var seen []Event
	tr.SetSink(func(ev Event) { seen = append(seen, ev) })
	for i := 0; i < 5; i++ {
		tr.Instant(KReady, int32(i), -1, int64(i), 0)
	}
	tr.SpanAt(KSignalWait, 1, 2, 0, -1, 0, 0)
	if len(seen) != 6 || tr.Len() != 2 {
		t.Fatalf("sink saw %d events, ring holds %d; want 6 and 2", len(seen), tr.Len())
	}
	for i, ev := range seen[:5] {
		if ev.A != int64(i) || ev.Origin != 3 {
			t.Fatalf("sink event %d = %+v", i, ev)
		}
	}
	if ev := seen[5]; ev.Kind != KSignalWait || ev.Dur != 0 {
		t.Fatalf("sink span = %+v, want a clamped signal-wait", ev)
	}
	tr.SetSink(nil)
	tr.Instant(KReady, 0, -1, 0, 0)
	if len(seen) != 6 {
		t.Fatal("detached sink still called")
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	tr := New(FuncClock(func() float64 { return 1 }), 8)
	tr.Span(KCompute, 0, 0, 5 /* start after "now" */, 0, 0)
	tr.SpanAt(KCompute, 0, 0, 0, -3, 0, 0)
	for i, ev := range tr.Events() {
		if ev.Dur < 0 {
			t.Fatalf("event %d: negative duration %v survived", i, ev.Dur)
		}
	}
}

func TestKindNamesComplete(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < kindCount; k++ {
		name := k.String()
		if name == "" || name == "kind-?" {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if Kind(200).String() != "kind-?" {
		t.Fatalf("out-of-range kind should stringify as kind-?")
	}
}

func recordSample(tr *Tracer) {
	tr.SpanAt(KCompute, 0, 1, 0.5, 0.25, 0, 0)
	tr.SpanAt(KSignalWait, 1, 1, 0.75, 0, 1, 0) // zero-duration span stays "X"
	tr.InstantAt(KGroupFormed, ControllerTrack, 3, 1.0, 7, 2)
	tr.InstantAt(KStaleness, 1, 1, 1.0, 2, 7)
	tr.InstantAt(KCrash, 2, 9, 1.5, 0, 0)
}

func TestWriteChromeValidates(t *testing.T) {
	tr := New(FuncClock(func() float64 { return 0 }), 16)
	recordSample(tr)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChrome: %v\n%s", err, buf.String())
	}
	if n != 5 {
		t.Fatalf("ValidateChrome counted %d events, want 5", n)
	}
	out := buf.String()
	// Controller events land on tid 0, worker w on tid w+1, named tracks.
	for _, want := range []string{
		`{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"controller"}}`,
		`"name":"worker 2"`,
		`"name":"group-formed","ph":"i"`,
		`"name":"compute","ph":"X"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Chrome export missing %q:\n%s", want, out)
		}
	}
}

func TestValidateChromeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		``,
		`{}`,
		`{"traceEvents":[{"ph":"Z","name":"x","pid":0,"tid":0,"ts":0}]}`,
		`{"traceEvents":[{"ph":"X","name":"x","pid":0,"tid":0,"ts":-1,"dur":0}]}`,
		`{"traceEvents":[{"ph":"X","name":"","pid":0,"tid":0,"ts":0,"dur":0}]}`,
	} {
		if _, err := ValidateChrome([]byte(bad)); err == nil {
			t.Fatalf("ValidateChrome accepted %q", bad)
		}
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	tr := New(FuncClock(func() float64 { return 0 }), 16)
	recordSample(tr)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Events(), 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	for i, line := range lines {
		var obj struct {
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			Kind  string  `json:"kind"`
			Track int32   `json:"track"`
			Iter  int32   `json:"iter"`
			A, B  int64
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d: %v: %s", i, err, line)
		}
		if obj.Kind == "" {
			t.Fatalf("line %d: empty kind", i)
		}
	}
	if !strings.Contains(lines[2], `"kind":"group-formed","track":-1`) {
		t.Fatalf("controller event not on track -1: %s", lines[2])
	}
}

// TestExportDeterministic pins the byte-identical property both exporters
// guarantee for a fixed event stream (the foundation of the same-seed
// sim-replay trace test).
func TestExportDeterministic(t *testing.T) {
	build := func() []Event {
		tr := New(FuncClock(func() float64 { return 0 }), 32)
		recordSample(tr)
		return tr.Events()
	}
	var c1, c2, j1, j2 bytes.Buffer
	if err := WriteChrome(&c1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&c2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("Chrome export differs across identical event streams")
	}
	if err := WriteJSONL(&j1, build(), 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&j2, build(), 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSONL export differs across identical event streams")
	}
}

// TestWriteFilePicksFormatByExtension: ".jsonl" writes WriteJSONL's bytes
// (truncation header included), anything else WriteChrome's.
func TestWriteFilePicksFormatByExtension(t *testing.T) {
	tr := New(FuncClock(func() float64 { return 0 }), 4)
	recordSample(tr)
	dir := t.TempDir()
	var chrome, jsonl bytes.Buffer
	if err := WriteChrome(&chrome, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonl, tr.Events(), tr.Dropped()); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"t.json": chrome.Bytes(), "t.jsonl": jsonl.Bytes()} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, tr); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %v, bytes differ from the direct export", name, err)
		}
	}
	if err := WriteFile(filepath.Join(dir, "missing", "t.json"), tr); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestNewDefaultCapacity(t *testing.T) {
	tr := New(FuncClock(func() float64 { return 0 }), 0)
	if len(tr.buf) != DefaultCapacity {
		t.Fatalf("cap %d, want DefaultCapacity %d", len(tr.buf), DefaultCapacity)
	}
}

// BenchmarkTracerDisabled measures the cost left on an instrumented hot
// path when tracing is off: one nil check per call.
func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := tr.Now()
		tr.Span(KCompute, 0, int32(i), start, 0, 0)
	}
}

// BenchmarkTracerEnabled measures the recording cost with the ring live.
func BenchmarkTracerEnabled(b *testing.B) {
	tr := New(FuncClock(func() float64 { return 0 }), 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.SpanAt(KCompute, 0, int32(i), 0, 1, 0, 0)
	}
}
