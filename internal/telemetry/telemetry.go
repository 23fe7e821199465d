// Package telemetry serves a live run's instruments over HTTP: a
// Prometheus-text /metrics endpoint rendering the metrics.Instruments
// snapshot with metrics.WritePrometheus plus the watchdog's series,
// /healthz and /readyz, and the standard net/http/pprof profiling
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
	"strings"

	"partialreduce/internal/health"
	"partialreduce/internal/metrics"
)

// WriteWatchdog renders the watchdog's state in the Prometheus text
// exposition format: the evaluation counter plus per-rule firing/value/
// threshold gauges and a fires counter, labeled by rule slug. The rule
// set and order are fixed, so the output is deterministic for a fixed
// state.
func WriteWatchdog(w io.Writer, st health.State) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP preduce_watchdog_evals_total Watchdog evaluations completed.\n"+
		"# TYPE preduce_watchdog_evals_total counter\npreduce_watchdog_evals_total %d\n", st.Evals)
	perRule := func(name, typ, help string, val func(health.RuleState) float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, rs := range st.Rules {
			fmt.Fprintf(&b, "%s{rule=\"%s\"} %s\n", name, rs.Rule, strconv.FormatFloat(val(rs), 'g', -1, 64))
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
	_, err := io.WriteString(w, b.String())
	return err
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
		_ = metrics.WritePrometheus(w, ins.Snapshot())
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
