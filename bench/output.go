package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
)

// metricDef is one row of the benchmark contract: BENCHMARK.json lists the
// same names and units, and TestBenchmarkJSONMatchesRegistry keeps the two
// in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the gated metrics, printed by the untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"preduce_steps_per_s", "1/s"},
	{"allreduce_steps_per_s", "1/s"},
}

// perLayer are the layer metrics, printed by the traced pass (-trace 1).
// A metric that does not apply to a workload (sim.* on a live workload,
// live.* on sim) is reported as 0; README.md lists which.
var perLayer = []metricDef{
	{"engine.compute_share", "ratio"},
	{"engine.comm_share", "ratio"},
	{"engine.signal_wait_share", "ratio"},
	{"engine.group_wait_share", "ratio"},
	{"engine.other_share", "ratio"},
	{"model.step_us", "us"},
	{"tensor.addscaled_gbps", "GB/s"},
	{"transport.mem_seg_rtt_us", "us"},
	{"transport.tcp_seg_rtt_us", "us"},
	{"transport.tcp_ctl_rtt_us", "us"},
	{"transport.tcp_ctl_rtt_p99_us", "us"},
	{"transport.encode_gbps", "GB/s"},
	{"transport.tcp_mesh_setup_ms", "ms"},
	{"collective.group_reduce_ms", "ms"},
	{"collective.world_reduce_ms", "ms"},
	{"collective.group_busbw_gbps", "GB/s"},
	{"collective.bytes_per_step", "B"},
	{"collective.segments_per_step", "count"},
	{"collective.retries", "count"},
	{"collective.timeouts", "count"},
	{"collective.aborts", "count"},
	{"controller.ready_ns", "ns"},
	{"controller.ready_n32_ns", "ns"},
	{"controller.solo_share", "ratio"},
	{"live.signal_wait_p50_us", "us"},
	{"live.signal_wait_p99_us", "us"},
	{"live.iter_p50_us", "us"},
	{"live.iter_p99_us", "us"},
	{"sim.updates_per_s", "1/s"},
	{"sim.virtual_s_per_wall_s", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.events_per_step", "count"},
	{"budget.comm_explained_ratio", "ratio"},
	{"paper.preduce_speedup", "ratio"},
	{"runtime.allocs_per_step", "count"},
	{"runtime.alloc_bytes_per_step", "B"},
	{"runtime.peak_rss_mb", "MB"},
	{"bufpool.f64_misses_per_step", "count"},
	{"host.canary_gbps", "GB/s"},
	{"host.canary_drift_pct", "%"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly the four keys the
// driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// spread describes the samples behind one metric so an outlier run explains
// itself: how many, their quartiles, and (for latencies) the tail.
type spread struct {
	N   int     `json:"n"`
	Q1  float64 `json:"q1"`
	Q3  float64 `json:"q3"`
	P99 float64 `json:"p99,omitempty"`
}

// runMeta is the line before the result: where and how the numbers were
// taken. Extra carries reported-but-ungated values and the bases of every
// ratio (for example the two rates behind trace.overhead_pct).
type runMeta struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Smoke      bool               `json:"smoke"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Reps       map[string]int     `json:"reps"`
	CanaryGBps [2]float64         `json:"canary_gbps"`
	Spread     map[string]spread  `json:"spread"`
	Extra      map[string]float64 `json:"extra"`
	Failures   []string           `json:"failures,omitempty"`
}

// report accumulates one run's metrics, their spreads, and the correctness
// tally.
type report struct {
	defs      []metricDef
	values    map[string]float64
	meta      runMeta
	attempted int
	failed    int
}

func newReport(defs []metricDef, meta runMeta) *report {
	meta.Commit = commit()
	meta.GoVersion = runtime.Version()
	meta.NProc = runtime.NumCPU()
	meta.GOMAXPROCS = runtime.GOMAXPROCS(0)
	meta.Reps = map[string]int{}
	meta.Spread = map[string]spread{}
	meta.Extra = map[string]float64{}
	return &report{defs: defs, values: map[string]float64{}, meta: meta}
}

// set records a metric value. Names outside the run's registry go to Extra:
// the traced pass computes end-to-end rates as bases, and the untraced pass
// reports the speedup, without either printing them as contract metrics.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // JSON has no encoding for these; an unmeasured metric reads 0
	}
	for _, d := range r.defs {
		if d.name == name {
			r.values[name] = v
			return
		}
	}
	r.meta.Extra[name] = v
}

// setSamples records a metric as the median of samples, with its spread.
func (r *report) setSamples(name string, samples []float64) {
	if len(samples) == 0 {
		r.set(name, 0)
		return
	}
	r.set(name, median(samples))
	q1, q3 := quartiles(samples)
	r.meta.Spread[name] = spread{N: len(samples), Q1: q1, Q3: q3}
}

// setLatency is setSamples plus the p99 of the samples in the spread.
func (r *report) setLatency(name string, samples []float64) {
	r.setSamples(name, samples)
	if s, ok := r.meta.Spread[name]; ok {
		s.P99 = percentile(samples, 99)
		r.meta.Spread[name] = s
	}
}

// check tallies one attempted operation; a failed one keeps its reason.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.meta.Failures) < 20 {
		r.meta.Failures = append(r.meta.Failures, fmt.Sprintf(format, args...))
	}
}

// result assembles the driver-facing object; metrics never measured read 0.
func (r *report) result() result {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(r.defs)),
	}
	for _, d := range r.defs {
		res.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return res
}

// write prints every metric by name with its unit, then the metadata line,
// then the result line (last, as the driver requires).
func (r *report) write(w io.Writer) error {
	m := r.meta
	fmt.Fprintf(w, "# bench workload=%s seed=%d seconds=%d trace=%t smoke=%t commit=%s %s nproc=%d gomaxprocs=%d\n",
		m.Workload, m.Seed, m.Seconds, m.Trace, m.Smoke, m.Commit, m.GoVersion, m.NProc, m.GOMAXPROCS)
	for _, d := range r.defs {
		line := fmt.Sprintf("%-32s %16.6g %-6s", d.name, r.values[d.name], d.unit)
		if s, ok := m.Spread[d.name]; ok {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", s.N, s.Q1, s.Q3)
			if s.P99 != 0 {
				line += fmt.Sprintf(" p99=%.6g", s.P99)
			}
		}
		fmt.Fprintln(w, line)
	}
	extra := make([]string, 0, len(m.Extra))
	for k := range m.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "  base %-38s %16.6g\n", k, m.Extra[k])
	}
	for _, f := range m.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	metaLine, err := json.Marshal(struct {
		Meta runMeta `json:"meta"`
	}{m})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", metaLine, resLine)
	return err
}

// commit is the VCS revision the binary was built from, when the toolchain
// could see one (the driver's checkout is not a repository: "unknown").
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
