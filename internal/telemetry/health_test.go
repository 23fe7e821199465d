package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"partialreduce/internal/health"
	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// TestHealthEndpoints: /readyz is 503 until the watchdog's first
// evaluation; /healthz flips to 503 with the firing rule named in the
// JSON body when a rule fires; /metrics carries the watchdog series.
func TestHealthEndpoints(t *testing.T) {
	ins := sampleInstruments()
	wd := health.New(health.SLO{QueueDepth: 3})
	ep, err := Serve("127.0.0.1:0", ins, wd)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + ep.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	// Before the first evaluation: healthy but not ready.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before eval = %d, want 200", code)
	}
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before eval = %d, want 503", code)
	}
	var st struct {
		Evals  uint64   `json:"evals"`
		Firing []string `json:"firing"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/readyz body is not JSON: %v\n%s", err, body)
	}
	if st.Evals != 0 {
		t.Fatalf("/readyz evals = %d, want 0", st.Evals)
	}

	// A clean evaluation makes it ready and healthy.
	wd.Eval(1.0, health.Sample{Snap: ins.Snapshot(), QueueDepth: 0, Active: 3})
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after clean eval = %d, want 200", code)
	}

	// A breach held for two evaluations (the watchdog's fire count) flips
	// /healthz to 503 and names the rule.
	wd.Eval(2.0, health.Sample{Snap: ins.Snapshot(), QueueDepth: 5, Active: 3})
	wd.Eval(3.0, health.Sample{Snap: ins.Snapshot(), QueueDepth: 5, Active: 3})
	code, body = get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while firing = %d, want 503", code)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/healthz body is not JSON: %v\n%s", err, body)
	}
	if len(st.Firing) != 1 || st.Firing[0] != "queue-stall" {
		t.Fatalf("/healthz firing = %v, want [queue-stall]", st.Firing)
	}
	if code, _ = get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while firing = %d, want 503", code)
	}

	// The watchdog series ride along on /metrics.
	_, body = get("/metrics")
	for _, want := range []string{
		"preduce_watchdog_evals_total 3",
		`preduce_watchdog_firing{rule="queue-stall"} 1`,
		`preduce_watchdog_firing{rule="staleness-p95"} 0`,
		`preduce_watchdog_value{rule="queue-stall"} 5`,
		`preduce_watchdog_threshold{rule="queue-stall"} 3`,
		`preduce_watchdog_fires_total{rule="queue-stall"} 1`,
		"preduce_epoch 1", // NewInstruments starts at the controller's first world view
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("missing %q in /metrics:\n%s", want, body)
		}
	}
}

// promSample is one parsed exposition sample: full series key
// (name{labels}) and value.
type promSample struct {
	base  string // metric family name (histogram suffixes folded)
	key   string // name plus label set, the monotonicity identity
	value float64
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// lintPromText parses Prometheus text exposition format strictly enough
// to catch the bugs hand-rolled writers actually produce: series without
// HELP/TYPE, malformed label syntax, unescaped label values, unparsable
// sample values, and unknown TYPE keywords. Returns the samples for
// cross-snapshot checks.
func lintPromText(t *testing.T, out string) []promSample {
	t.Helper()
	help := map[string]bool{}
	typ := map[string]string{}
	var samples []promSample
	fold := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typ[base] == "histogram" {
				return base
			}
		}
		return name
	}
	for ln, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, ok := strings.Cut(rest, " ")
			if !ok || text == "" {
				t.Errorf("line %d: HELP without text: %q", ln+1, line)
			}
			if !promNameRe.MatchString(name) {
				t.Errorf("line %d: bad metric name %q", ln+1, name)
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown TYPE %q", ln+1, kind)
			}
			if !help[name] {
				t.Errorf("line %d: TYPE %s precedes its HELP", ln+1, name)
			}
			typ[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample line: name[{labels}] value
		nameEnd := strings.IndexAny(line, "{ ")
		if nameEnd < 0 {
			t.Errorf("line %d: malformed sample %q", ln+1, line)
			continue
		}
		name := line[:nameEnd]
		rest := line[nameEnd:]
		key := name
		if strings.HasPrefix(rest, "{") {
			close := strings.Index(rest, "}")
			if close < 0 {
				t.Errorf("line %d: unterminated label set: %q", ln+1, line)
				continue
			}
			labels := rest[1:close]
			key = name + "{" + labels + "}"
			rest = rest[close+1:]
			for _, pair := range strings.Split(labels, ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || !promLabelRe.MatchString(k) {
					t.Errorf("line %d: bad label pair %q", ln+1, pair)
					continue
				}
				if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Errorf("line %d: unquoted label value %q", ln+1, pair)
					continue
				}
				if strings.ContainsAny(v[1:len(v)-1], "\"\n\\") {
					t.Errorf("line %d: unescaped label value %q", ln+1, pair)
				}
			}
		}
		valStr := strings.TrimSpace(rest)
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("line %d: unparsable value %q", ln+1, valStr)
			continue
		}
		base := fold(name)
		if !promNameRe.MatchString(name) {
			t.Errorf("line %d: bad metric name %q", ln+1, name)
		}
		if !help[base] || typ[base] == "" {
			t.Errorf("line %d: series %s has no HELP/TYPE for family %s", ln+1, name, base)
		}
		samples = append(samples, promSample{base: base, key: key, value: val})
	}
	return samples
}

// TestPromTextLint: the full exposition (metrics + watchdog series)
// passes the format lint, every counter is monotone non-decreasing
// across two successive snapshots with activity in between, and a
// bundle's metrics.prom passes the lint too.
func TestPromTextLint(t *testing.T) {
	ins := sampleInstruments()
	wd := health.New(health.SLO{QueueDepth: 3, StalenessP95: 100})
	wd.Eval(1.0, health.Sample{Snap: ins.Snapshot(), QueueDepth: 5, Active: 3})

	render := func() string {
		var buf bytes.Buffer
		if err := metrics.WritePrometheus(&buf, ins.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if err := WriteWatchdog(&buf, wd.State()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	first := lintPromText(t, render())
	counterKinds := map[string]string{}
	for _, line := range strings.Split(render(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			counterKinds[name] = kind
		}
	}
	before := map[string]float64{}
	for _, s := range first {
		before[s.key] = s.value
	}

	// More activity: every counter should only grow (or hold).
	ready(ins, 0, 3, 2, 1)
	ready(ins, 1, 3, 2.25, 2)
	observeGroup(ins, 3, 2.25, []int32{0, 1}, []int64{2, 0})
	ins.Observe(trace.Event{Kind: trace.KBridged, Track: trace.ControllerTrack, A: 3})
	ins.AddComms(metrics.CommStats{Ops: 3, BytesSent: 64, Retries: 2, Timeouts: 1})
	wd.Eval(2.0, health.Sample{Snap: ins.Snapshot(), QueueDepth: 5, Active: 3})

	second := lintPromText(t, render())
	for _, s := range second {
		if counterKinds[s.base] != "counter" {
			continue
		}
		if prev, ok := before[s.key]; ok && s.value < prev {
			t.Errorf("counter %s went backwards: %v -> %v", s.key, prev, s.value)
		}
	}
	// Sanity: the lint saw real content (histogram + counters + watchdog).
	if len(second) < 30 {
		t.Fatalf("lint parsed only %d samples, exposition suspiciously small", len(second))
	}

	// A postmortem bundle's metrics.prom is the same exposition and passes
	// the same lint.
	rec := health.NewRecorder(t.TempDir(), trace.New(trace.FuncClock(func() float64 { return 2 }), 8), ins, nil)
	path, err := rec.Capture("blame-spike", 2.0, nil, wd.State())
	if err != nil {
		t.Fatal(err)
	}
	_, parts, err := health.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := lintPromText(t, string(parts[health.PartMetrics])); len(got) < 25 {
		t.Fatalf("lint parsed only %d samples of the bundle's %s", len(got), health.PartMetrics)
	}
}
