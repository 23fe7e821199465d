// Package telemetry serves a live run's instruments over HTTP: a
// Prometheus-text /metrics endpoint rendering the metrics.Instruments
// snapshot (staleness histogram with p50/p95/max, ready-queue depth,
// per-worker barrier-wait totals, sync-graph connectivity gauges, and the
// running CommStats counters), plus the standard net/http/pprof profiling
// handlers under /debug/pprof/. Everything is hand-rolled stdlib: the
// exposition format is plain text, so no client library is needed.
//
// The endpoint runs on its own mux — nothing is registered on
// http.DefaultServeMux — so embedding it never leaks handlers into the
// host process.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"partialreduce/internal/health"
	"partialreduce/internal/metrics"
)

// WriteMetrics renders a snapshot in the Prometheus text exposition format
// (version 0.0.4). The output is deterministic for a fixed snapshot: fixed
// metric order, workers ascending, buckets ascending.
func WriteMetrics(w io.Writer, snap *metrics.InstrumentsSnapshot) error {
	ew := &errw{w: w}

	// Staleness histogram: exact per-value buckets rendered cumulatively.
	ew.str("# HELP preduce_staleness Per-member staleness (group max iteration minus member iteration) observed at group formation.\n")
	ew.str("# TYPE preduce_staleness histogram\n")
	h := snap.Staleness
	counts, _ := h.Buckets() // overflow is folded into +Inf via Count
	last := -1
	for v, c := range counts {
		if c != 0 {
			last = v
		}
	}
	var cum int64
	for v := 0; v <= last; v++ {
		cum += counts[v]
		ew.str("preduce_staleness_bucket{le=\"")
		ew.str(strconv.Itoa(v))
		ew.str("\"} ")
		ew.i64(cum)
		ew.str("\n")
	}
	ew.str("preduce_staleness_bucket{le=\"+Inf\"} ")
	ew.i64(h.Count())
	ew.str("\npreduce_staleness_sum ")
	ew.i64(h.Sum())
	ew.str("\npreduce_staleness_count ")
	ew.i64(h.Count())
	ew.str("\n")

	gauge := func(name, help string, v float64) {
		ew.str("# HELP ")
		ew.str(name)
		ew.str(" ")
		ew.str(help)
		ew.str("\n# TYPE ")
		ew.str(name)
		ew.str(" gauge\n")
		ew.str(name)
		ew.str(" ")
		ew.f64(v)
		ew.str("\n")
	}
	counter := func(name, help string, v float64) {
		ew.str("# HELP ")
		ew.str(name)
		ew.str(" ")
		ew.str(help)
		ew.str("\n# TYPE ")
		ew.str(name)
		ew.str(" counter\n")
		ew.str(name)
		ew.str(" ")
		ew.f64(v)
		ew.str("\n")
	}

	gauge("preduce_staleness_p50", "Median observed staleness.", float64(h.Quantile(0.5)))
	gauge("preduce_staleness_p95", "95th-percentile observed staleness.", float64(h.Quantile(0.95)))
	gauge("preduce_staleness_max", "Maximum observed staleness.", float64(h.Max()))

	gauge("preduce_queue_depth", "Ready-queue depth at the latest sample.", snap.QueueDepthSample)
	gauge("preduce_queue_depth_samples", "Ready-queue depth samples retained.", float64(len(snap.QueueDepthV)))

	ew.str("# HELP preduce_barrier_wait_seconds_total Cumulative seconds each worker spent waiting for a group instead of computing.\n")
	ew.str("# TYPE preduce_barrier_wait_seconds_total counter\n")
	for i, s := range snap.BarrierWait {
		ew.str("preduce_barrier_wait_seconds_total{worker=\"")
		ew.str(strconv.Itoa(i))
		ew.str("\"} ")
		ew.f64(s)
		ew.str("\n")
	}

	// Online blame estimator (fed by the controller at each group
	// release): the live counterpart of preduce-analyze's blame ledger.
	perWorker := func(name, typ, help string, vals []float64) {
		if len(vals) == 0 {
			return
		}
		ew.str("# HELP ")
		ew.str(name)
		ew.str(" ")
		ew.str(help)
		ew.str("\n# TYPE ")
		ew.str(name)
		ew.str(" ")
		ew.str(typ)
		ew.str("\n")
		for i, v := range vals {
			ew.str(name)
			ew.str("{worker=\"")
			ew.str(strconv.Itoa(i))
			ew.str("\"} ")
			ew.f64(v)
			ew.str("\n")
		}
	}
	toF := func(vals []int64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = float64(v)
		}
		return out
	}
	perWorker("preduce_worker_wait_seconds_total", "counter",
		"Cumulative seconds each worker spent queued waiting for its group to form.", snap.GroupWait)
	perWorker("preduce_worker_blame_seconds_total", "counter",
		"Cumulative seconds of other workers' time each worker consumed by arriving last to its groups.", snap.Blame)
	perWorker("preduce_worker_blame_recent", "gauge",
		"Exponential moving average of each worker's per-group blame (the straggler scoreboard signal).", snap.BlameEWMA)
	perWorker("preduce_worker_critical_total", "counter",
		"Groups in which each worker was the last arrival.", toF(snap.CriticalN))

	gauge("preduce_sync_max_contact_age", "Groups since the most estranged alive worker pair last synchronized (-1: some pair never met).", float64(snap.MaxContactAge))
	gauge("preduce_sync_components", "Connected components of the windowed sync-graph (1 = healthy).", float64(snap.SyncComponents))

	counter("preduce_groups_formed_total", "P-Reduce groups formed.", float64(snap.GroupsFormed))
	counter("preduce_group_interventions_total", "Groups rewritten by frozen avoidance.", float64(snap.Interventions))
	counter("preduce_group_deferrals_total", "Group formations deferred awaiting a bridging signal.", float64(snap.Deferrals))

	gauge("preduce_epoch", "Current membership world-view epoch (bumps on join/drain/decommission/fail).", float64(snap.Epoch))

	gauge("preduce_policy_p", "Group size chosen at the latest adaptive-p decision (0: fixed P).", float64(snap.PolicyP))
	counter("preduce_policy_deviations_total", "Adaptive-p group sizes that differed from fixed P's.", float64(snap.PolicyDeviations))

	cs := snap.Comms
	counter("preduce_comm_ops_total", "Collective operations executed.", float64(cs.Ops))
	counter("preduce_comm_sent_bytes_total", "Payload bytes sent across all workers.", float64(cs.BytesSent))
	counter("preduce_comm_recv_bytes_total", "Payload bytes received across all workers.", float64(cs.BytesRecv))
	counter("preduce_comm_segments_total", "Pipeline segments shipped.", float64(cs.Segments))
	counter("preduce_comm_retries_total", "Collective attempts re-run after a timeout.", float64(cs.Retries))
	counter("preduce_comm_timeouts_total", "Receive deadlines fired inside collectives.", float64(cs.Timeouts))
	counter("preduce_comm_aborts_total", "Collectives abandoned after exhausting the retry budget.", float64(cs.Aborts))
	counter("preduce_comm_reduce_scatter_seconds_total", "Cumulative seconds in the reduce-scatter phase across workers.", cs.ReduceScatterS)
	counter("preduce_comm_all_gather_seconds_total", "Cumulative seconds in the all-gather phase across workers.", cs.AllGatherS)

	return ew.err
}

// WriteWatchdog renders the watchdog's state in the Prometheus text
// exposition format: the evaluation counter plus per-rule firing/value/
// threshold gauges and a fires counter, labeled by rule slug. The rule
// set and order are fixed, so the output is deterministic for a fixed
// state.
func WriteWatchdog(w io.Writer, st health.State) error {
	ew := &errw{w: w}
	ew.str("# HELP preduce_watchdog_evals_total Watchdog evaluations completed.\n")
	ew.str("# TYPE preduce_watchdog_evals_total counter\n")
	ew.str("preduce_watchdog_evals_total ")
	ew.i64(int64(st.Evals))
	ew.str("\n")

	perRule := func(name, typ, help string, val func(health.RuleState) float64) {
		ew.str("# HELP ")
		ew.str(name)
		ew.str(" ")
		ew.str(help)
		ew.str("\n# TYPE ")
		ew.str(name)
		ew.str(" ")
		ew.str(typ)
		ew.str("\n")
		for _, rs := range st.Rules {
			ew.str(name)
			ew.str("{rule=\"")
			ew.str(rs.Rule)
			ew.str("\"} ")
			ew.f64(val(rs))
			ew.str("\n")
		}
	}
	perRule("preduce_watchdog_firing", "gauge",
		"Whether the rule is currently firing (1) or clear (0).",
		func(rs health.RuleState) float64 {
			if rs.Firing {
				return 1
			}
			return 0
		})
	perRule("preduce_watchdog_value", "gauge",
		"The rule's most recently evaluated value.",
		func(rs health.RuleState) float64 { return rs.Value })
	perRule("preduce_watchdog_threshold", "gauge",
		"The rule's configured SLO threshold (0: rule disabled).",
		func(rs health.RuleState) float64 {
			if !rs.Enabled {
				return 0
			}
			return rs.Threshold
		})
	perRule("preduce_watchdog_fires_total", "counter",
		"Times the rule has transitioned into firing.",
		func(rs health.RuleState) float64 { return float64(rs.Fires) })
	return ew.err
}

// WriteScoreboard renders the live straggler scoreboard: one line per
// worker in metrics.InstrumentsSnapshot.Scoreboard order.
func WriteScoreboard(w io.Writer, snap *metrics.InstrumentsSnapshot) error {
	ew := &errw{w: w}
	ew.str("straggler scoreboard (groups formed: ")
	ew.i64(snap.GroupsFormed)
	ew.str(")\n")
	rows := snap.Scoreboard()
	if len(rows) == 0 {
		ew.str("  (no per-worker blame data)\n")
		return ew.err
	}
	ew.str("  rank  recent_s  blame_s  waited_s  critical  groups\n")
	for _, r := range rows {
		ew.str(fmt.Sprintf("  %4d  %8.3f  %7.3f  %8.3f  %8d  %6d\n",
			r.Rank, r.Recent, r.Blame, r.Waited, r.Critical, r.Groups))
	}
	return ew.err
}

// Handler returns the telemetry mux: /metrics renders ins (nil-safe — a nil
// Instruments serves an all-zero snapshot), /healthz and /readyz answer
// for the watchdog, and /debug/pprof/ serves the standard profiling
// endpoints.
//
// /healthz returns 200 while no watchdog rule fires and 503 while one
// does; either way the body is the watchdog state as JSON (firing rules,
// per-rule values and thresholds). A nil watchdog reads as healthy —
// monitoring off is not an outage. /readyz returns 503 until the
// watchdog has completed its first evaluation, then 200 subject to the
// same healthy check; with a nil watchdog it is always 200, so probes
// work unchanged on runs without a health plane.
func Handler(ins *metrics.Instruments, wd *health.Watchdog) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w, ins.Snapshot())
		if wd != nil {
			_ = WriteWatchdog(w, wd.State())
		}
	})
	writeState := func(w http.ResponseWriter, st health.State, ok bool) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		body, err := json.Marshal(st)
		if err != nil {
			body = []byte("{}")
		}
		_, _ = w.Write(append(body, '\n'))
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := wd.State()
		writeState(w, st, wd == nil || st.Healthy())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		st := wd.State()
		writeState(w, st, wd == nil || (st.Ready() && st.Healthy()))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Endpoint is a running telemetry server.
type Endpoint struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
}

// Serve binds addr (e.g. "127.0.0.1:9090", or ":0" for an ephemeral port)
// and serves Handler(ins, wd) in a background goroutine until Close.
func Serve(addr string, ins *metrics.Instruments, wd *health.Watchdog) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(ins, wd)}
	go func() { _ = srv.Serve(ln) }()
	return &Endpoint{Addr: ln.Addr().String(), srv: srv}, nil
}

// Close shuts the endpoint down immediately.
func (e *Endpoint) Close() error { return e.srv.Close() }

// errw is a sticky-error writer with small formatting helpers.
type errw struct {
	w   io.Writer
	err error
}

func (e *errw) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *errw) i64(v int64) { e.str(strconv.FormatInt(v, 10)) }

func (e *errw) f64(v float64) { e.str(strconv.FormatFloat(v, 'g', -1, 64)) }
