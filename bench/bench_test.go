package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// None of these tests asserts a timing: they pin the helpers' arithmetic,
// the output schema, and that every workload's smoke run is structurally
// complete and passes its own correctness checks.

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{7})
	if q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v, want 7, 7", q1, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestABBAOrderAndPairing(t *testing.T) {
	order := abbaOrder(2)
	want := []variant{vPReduce, vAllReduce, vAllReduce, vPReduce, vPReduce, vAllReduce, vAllReduce, vPReduce}
	if len(order) != len(want) {
		t.Fatalf("order length %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
	// Rates chosen so each adjacent pair has a distinct, exact ratio.
	rates := []float64{20, 10, 5, 15, 40, 10, 8, 16}
	got := pairRatios(order, rates)
	wantRatios := []float64{2, 3, 4, 2}
	if len(got) != len(wantRatios) {
		t.Fatalf("pairRatios = %v, want %v", got, wantRatios)
	}
	for i := range wantRatios {
		if got[i] != wantRatios[i] {
			t.Errorf("ratio %d = %v, want %v", i, got[i], wantRatios[i])
		}
	}
	// A failed rep (rate 0) drops its pair and nothing else.
	rates[1] = 0
	if got := pairRatios(order, rates); len(got) != 3 || got[0] != 3 {
		t.Errorf("pairRatios with a failed rep = %v, want [3 4 2]", got)
	}
}

func TestReferencedOrderAndNormalizeRates(t *testing.T) {
	order := append(referencedOrder(1), vReference)
	want := []variant{vReference, vPReduce, vReference, vAllReduce, vReference, vAllReduce, vReference, vPReduce, vReference}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
	// Each product rep is divided by the mean of the two references around
	// it and scaled by the nominal reference rate.
	rates := []float64{100, 50, 300, 40, 100, 30, 200, 60, 100}
	got := normalizeRates(order, rates, 1000)
	if p := got[vPReduce]; len(p) != 2 || p[0] != 50.0/200*1000 || p[1] != 60.0/150*1000 {
		t.Errorf("P-Reduce relative rates = %v, want [250 400]", p)
	}
	if a := got[vAllReduce]; len(a) != 2 || a[0] != 40.0/200*1000 || a[1] != 30.0/150*1000 {
		t.Errorf("All-Reduce relative rates = %v, want [200 200]", a)
	}
	if _, ok := got[vReference]; ok {
		t.Error("reference reps were reported as a product variant")
	}
	// A failed reference (rate 0) leaves its neighbours' other reference to
	// stand alone; a failed product rep is dropped; a product rep between
	// two failed references is dropped.
	rates[2], rates[7] = 0, 0
	got = normalizeRates(order, rates, 1000)
	if p := got[vPReduce]; len(p) != 1 || p[0] != 50.0/100*1000 {
		t.Errorf("with a failed reference and a failed rep: P-Reduce = %v, want [500]", p)
	}
	if a := got[vAllReduce]; len(a) != 2 || a[0] != 40.0/100*1000 {
		t.Errorf("with a failed reference: All-Reduce = %v, want [400 200]", a)
	}
	rates[0] = 0
	if p := normalizeRates(order, rates, 1000)[vPReduce]; len(p) != 0 {
		t.Errorf("a rep with no usable reference was kept: %v", p)
	}
	// No reference (nominal 0): rates pass through, in run order.
	plain := normalizeRates(abbaOrder(1), []float64{7, 3, 0, 9}, 0)
	if p, a := plain[vPReduce], plain[vAllReduce]; len(p) != 2 || p[0] != 7 || p[1] != 9 || len(a) != 1 || a[0] != 3 {
		t.Errorf("pass-through = %v", plain)
	}
	// The speedup pairs ignore the reference reps between P and A.
	if r := pairRatios(order, []float64{1, 20, 1, 10, 1, 5, 1, 15, 1}); len(r) != 2 || r[0] != 2 || r[1] != 3 {
		t.Errorf("pairRatios over a referenced block = %v, want [2 3]", r)
	}
}

// TestReferenceJobAllReduces runs the reference trainer over both kinds of
// ring, at a payload smaller than a segment per chunk and one of several
// segments per chunk. One iteration from p0 must leave every rank at
// p0 * (1 - 1e-4 * mean x), x = 0.5 + 0.01*rank; rep itself also fails unless
// the ranks end bit-identical.
func TestReferenceJobAllReduces(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		for _, d := range []int{108, 2*liveN*refSegment + 5} {
			j := &refJob{n: liveN, d: d, iters: 1, tcp: tcp}
			params, wall, err := j.run()
			if err != nil || wall <= 0 {
				t.Fatalf("tcp=%t d=%d: wall %v err %v", tcp, d, wall, err)
			}
			for r := range params {
				for i, got := range params[r] {
					want := float64(i%13) * 0.01 * (1 - 1e-4*0.535)
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("tcp=%t d=%d rank %d element %d = %v, want %v", tcp, d, r, i, got, want)
					}
				}
			}
			j.iters = 3
			if steps, _, err := j.rep(); err != nil || steps != int64(liveN*3) {
				t.Errorf("tcp=%t d=%d: rep gave %d steps, err %v", tcp, d, steps, err)
			}
		}
	}
}

func TestComputeDelayIsPureAndShaped(t *testing.T) {
	distinct := map[time.Duration]bool{}
	for rank := 0; rank < liveN; rank++ {
		lo, hi := 1700*time.Microsecond, 2300*time.Microsecond
		if rank < 2 {
			lo, hi = 5100*time.Microsecond, 6900*time.Microsecond
		}
		for iter := 0; iter < 200; iter++ {
			d := computeDelay(7, rank, iter)
			if d != computeDelay(7, rank, iter) {
				t.Fatalf("computeDelay(7,%d,%d) is not a function of its arguments", rank, iter)
			}
			if d < lo || d > hi {
				t.Fatalf("computeDelay(7,%d,%d) = %v outside [%v,%v]", rank, iter, d, lo, hi)
			}
			distinct[d] = true
		}
	}
	if len(distinct) < 1000 {
		t.Errorf("only %d distinct delays over 1600 draws: jitter is not spreading", len(distinct))
	}
	if computeDelay(7, 3, 5) == computeDelay(8, 3, 5) {
		t.Error("delay ignores the seed")
	}
}

func TestStepHookCountsAndStamps(t *testing.T) {
	w, err := findWorkload("hetero")
	if err != nil {
		t.Fatal(err)
	}
	h := newStepHook(w, 3, true, liveN, 4)
	h.t0 = time.Now()
	for iter := 0; iter < 4; iter++ {
		for rank := 0; rank < liveN; rank++ {
			if got, want := h.delay(rank, iter), computeDelay(3, rank, iter); got != want {
				t.Fatalf("hook delay(%d,%d) = %v, want %v", rank, iter, got, want)
			}
		}
	}
	if h.total() != 4*liveN {
		t.Errorf("total = %d, want %d", h.total(), 4*liveN)
	}
	if got := len(h.gapsUS()); got != 3*liveN {
		t.Errorf("%d gaps, want %d", got, 3*liveN)
	}
	plain, _ := findWorkload("comm_mem")
	if d := newStepHook(plain, 3, false, liveN, 0).delay(0, 0); d != 0 {
		t.Errorf("workload without a delay profile injected %v", d)
	}
}

// lastLines splits a run's output into the metadata line and the result
// line, which must be the last two.
func lastLines(t *testing.T, out string) (runMeta, result, map[string]json.RawMessage) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("output too short:\n%s", out)
	}
	var metaLine struct {
		Meta runMeta `json:"meta"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &metaLine); err != nil {
		t.Fatalf("metadata line: %v\n%s", err, lines[len(lines)-2])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v\n%s", err, lines[len(lines)-1])
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatal(err)
	}
	return metaLine.Meta, res, keys
}

func TestOutputSchemaRoundTrips(t *testing.T) {
	r := newReport(endToEnd, runMeta{Workload: "comm_mem", Seed: 5, Seconds: 18})
	r.set("setup_s", 3.25)
	r.setSamples("preduce_steps_per_s", []float64{700, 720, 740})
	r.setSamples("allreduce_steps_per_s", []float64{600, 620})
	r.set("paper.preduce_speedup", 1.17) // not an end-to-end metric: a base
	r.set("rate.nan", math.NaN())
	r.check(true, "fine")
	r.check(false, "rep %d broke", 3)

	var buf bytes.Buffer
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	meta, res, keys := lastLines(t, buf.String())
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want exactly correct/attempted/failed/metrics", len(keys))
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("tally = %+v, want incorrect 2 attempted 1 failed", res)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	if got := res.Metrics["preduce_steps_per_s"]; got.Value != 720 || got.Unit != "1/s" {
		t.Errorf("preduce_steps_per_s = %+v, want 720 1/s", got)
	}
	if got := res.Metrics["setup_s"]; got.Value != 3.25 || got.Unit != "s" {
		t.Errorf("setup_s = %+v", got)
	}
	if meta.Workload != "comm_mem" || meta.Seed != 5 || meta.GOMAXPROCS < 1 || meta.GoVersion == "" || meta.NProc < 1 {
		t.Errorf("metadata incomplete: %+v", meta)
	}
	if s := meta.Spread["preduce_steps_per_s"]; s.N != 3 || s.Q1 != 700 || s.Q3 != 740 {
		t.Errorf("spread = %+v, want n=3 q1=700 q3=740", s)
	}
	if meta.Extra["paper.preduce_speedup"] != 1.17 || meta.Extra["rate.nan"] != 0 {
		t.Errorf("extra = %v", meta.Extra)
	}
	if len(meta.Failures) != 1 || meta.Failures[0] != "rep 3 broke" {
		t.Errorf("failures = %v", meta.Failures)
	}
	if !strings.Contains(buf.String(), "preduce_steps_per_s") || !strings.Contains(buf.String(), "1/s") {
		t.Error("human-readable metric lines missing")
	}
}

// TestBenchmarkJSONMatchesRegistry keeps the contract file and the program
// in step: same workloads with the same reasons, same metrics with the same
// units, in the same order.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the program", len(bf.Workloads), len(gated))
	}
	for i, w := range gated {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("end_to_end[%d] %s: bound %v better %q", i, m.Name, m.Bound, m.Better)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v", bf.RunSeconds, bf.Paths)
	}
}

// TestSmoke runs every workload's -smoke mode through both passes and checks
// structure and the workload's own correctness checks only.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", traced, "-smoke"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				meta, res, _ := lastLines(t, stdout.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Errorf("tally %+v", res)
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
						t.Errorf("metric %s: %+v (present %t)", d.name, m, ok)
					}
				}
				if !meta.Smoke || meta.Workload != w.name || meta.Seed != 3 {
					t.Errorf("metadata %+v", meta)
				}
				if traced == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %v, want positive", d.name, res.Metrics[d.name].Value)
						}
					}
					return
				}
				sum := 0.0
				for _, name := range []string{"engine.compute_share", "engine.comm_share", "engine.signal_wait_share", "engine.group_wait_share", "engine.other_share"} {
					sum += res.Metrics[name].Value
				}
				if math.Abs(sum-1) > 1e-6 {
					t.Errorf("engine shares sum to %v", sum)
				}
				for _, name := range []string{"collective.retries", "collective.timeouts", "collective.aborts"} {
					if res.Metrics[name].Value != 0 {
						t.Errorf("%s = %v, want 0", name, res.Metrics[name].Value)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadAndBadFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim", "--trace", "2"},
		{"--workload", "sim", "--seconds", "0"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) succeeded", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed a result: %s", args, stdout.String())
		}
	}
}

func TestSummarizeFlagsMovedMedians(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[
		{"name":"setup_s","unit":"s","better":"lower","bound":0.15},
		{"name":"preduce_steps_per_s","unit":"1/s","better":"higher","bound":0.10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	line := func(set string, setup, rate float64, correct bool) string {
		res := result{Correct: correct, Attempted: 4, Metrics: map[string]metricValue{
			"setup_s":             {Value: setup, Unit: "s"},
			"preduce_steps_per_s": {Value: rate, Unit: "1/s"},
		}}
		if !correct {
			res.Failed = 1
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return set + " comm_mem " + string(raw) + "\n"
	}
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var same, slower, broken strings.Builder
	for i := 0; i < 5; i++ {
		jitter := float64(i)
		same.WriteString(line("A", 3+jitter/100, 700+jitter, true))
		same.WriteString(line("B", 3.02+jitter/100, 702+jitter, true))
		slower.WriteString(line("A", 3+jitter/100, 700+jitter, true))
		slower.WriteString(line("B", 3+jitter/100, 600+jitter, true))
		broken.WriteString(line("A", 3, 700, true))
		broken.WriteString(line("B", 3, 700, i != 2))
	}

	var out bytes.Buffer
	if err := summarizeFile(write("same.log", same.String()), bounds, &out); err != nil {
		t.Errorf("matching sets rejected: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "preduce_steps_per_s") || !strings.Contains(out.String(), "comm_mem") {
		t.Errorf("table lacks its rows:\n%s", out.String())
	}
	out.Reset()
	err := summarizeFile(write("slower.log", slower.String()), bounds, &out)
	if err == nil || !strings.Contains(err.Error(), "comm_mem/preduce_steps_per_s") {
		t.Errorf("a 14%% slower set B passed a 10%% bound: %v\n%s", err, out.String())
	}
	if err := summarizeFile(write("broken.log", broken.String()), bounds, &out); err == nil {
		t.Error("a log holding a failed run was summarised")
	}
}
