// Command preduce-live runs one worker of a live P-Reduce training world.
// Start N processes (on one machine or several), each with its rank and the
// full address list; they connect a TCP mesh, train real model replicas on
// a shared synthetic dataset, and synchronize through P-Reduce groups with
// genuine ring all-reduce collectives.
//
// A three-worker world on one machine:
//
//	preduce-live -rank 0 -addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002 &
//	preduce-live -rank 1 -addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002 &
//	preduce-live -rank 2 -addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002
//
// Note: the live runtime's controller runs in the rank-0 process in this
// single-binary deployment, so rank 0 must be reachable by all. Every
// process must use identical -seed, -p, -iters, and dataset flags: the
// dataset and initialization derive deterministically from the seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	preduce "partialreduce"
	"partialreduce/internal/collective"
	"partialreduce/internal/data"
	"partialreduce/internal/health"
	"partialreduce/internal/hetero"
	"partialreduce/internal/live"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
	"partialreduce/internal/policy"
	"partialreduce/internal/telemetry"
	"partialreduce/internal/trace"
	"partialreduce/internal/transport"
)

func main() {
	rank := flag.Int("rank", -1, "this worker's rank in [0, N)")
	addrs := flag.String("addrs", "", "comma-separated listen addresses, one per rank")
	p := flag.Int("p", 2, "P-Reduce group size")
	iters := flag.Int("iters", 200, "local iterations per worker")
	seed := flag.Int64("seed", 1, "shared seed (dataset, initialization)")
	dynamic := flag.Bool("dynamic", false, "use dynamic staleness-aware weights")
	meshTimeout := flag.Duration("mesh-timeout", 15*time.Second,
		"bound on TCP mesh formation; a missing rank fails the start instead of hanging")
	heartbeat := flag.Duration("heartbeat", 0,
		"heartbeat interval for peer liveness probing (0 disables; crashes are still caught via broken connections)")
	heartbeatTimeout := flag.Duration("heartbeat-timeout", 0,
		"declare a peer dead after this long without traffic (default 10x -heartbeat)")
	segmentSize := flag.Int("segment-size", 0,
		"collective pipeline segment size in float64 elements (0: the transport's frame size, 32Ki over TCP)")
	commStats := flag.Bool("comm-stats", false,
		"print this rank's data-plane statistics (bytes, segments, per-phase time) on exit")
	ctrlTimeout := flag.Duration("ctrl-timeout", 0,
		"bound a worker's wait for a group reply; on expiry the ready signal is re-sent (0: wait forever)")
	collTimeout := flag.Duration("collective-timeout", 0,
		"bound every receive inside group collectives so severed links surface as timeouts (0: wait forever; same on every rank)")
	retryMax := flag.Int("retry-max", 0,
		"collective attempts after a receive timeout before aborting the group (0 or 1: no retry; same on every rank)")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond,
		"base backoff before a collective retry; doubles per attempt with seeded jitter")
	tracePath := flag.String("trace", "",
		"write this rank's wall-clock trace here on exit; '.r<rank>' is inserted before the extension so every rank can share the flag (.json: Chrome trace-event for Perfetto; .jsonl: streaming event log)")
	traceBuf := flag.Int("trace-buf", 0,
		"trace event-ring capacity (0: default 65536; oldest events drop when full)")
	telemetryAddr := flag.String("telemetry-addr", "",
		"serve Prometheus-text /metrics (staleness histogram, queue depth, barrier-wait, comm counters) and /debug/pprof/ on this address for the run's duration (e.g. 127.0.0.1:9090, or :0 for an ephemeral port)")
	schedulePath := flag.String("schedule", "",
		"JSON file, the same on every rank, of {Initial, Elastic, Partitions}: founding ranks (0: all), joins and drains triggered on dispatched groups, and partition windows in seconds after the mesh forms that drop every crossing frame, control frames included (so they need -ctrl-timeout and -collective-timeout); see README")
	policyName := flag.String("policy", "",
		"group-formation policy: static|adaptive-p|straggler-bias (empty: controller default)")
	pMin := flag.Int("p-min", 0, "adaptive-p lower group-size bound (0: default 2)")
	pMax := flag.Int("p-max", 0, "adaptive-p upper group-size bound (0: -p)")
	policyWindow := flag.Int("policy-window", 0, "formations between adaptive-p decisions (0: default 8)")
	scoreboard := flag.Duration("scoreboard", 0,
		"rank 0: dump the live straggler scoreboard (per-worker blame/wait, ranked by recent blame) to stderr at this interval, and once on exit (0 disables; implies instruments)")
	straggle := flag.String("straggle", "",
		"demo straggler injection 'rank:dur' (e.g. 1:30ms): that rank sleeps dur extra per iteration, so the scoreboard and blame gauges have someone to convict")
	sloStaleness := flag.Int64("slo-staleness-p95", 0,
		"watchdog: fire when 95th-percentile staleness reaches this many iterations (0 disables the rule)")
	sloBlame := flag.Float64("slo-blame-recent", 0,
		"watchdog: fire when any worker's recent-blame EWMA reaches this many seconds (0 disables)")
	sloRetryStorm := flag.Int64("slo-retry-storm", 0,
		"watchdog: fire when collective retries+timeouts grow by at least this many per evaluation (0 disables)")
	sloSyncComponents := flag.Int64("slo-sync-components", 0,
		"watchdog: fire when the windowed sync-graph splits into at least this many components (2 = any split; 0 disables)")
	sloQueueDepth := flag.Int64("slo-queue-depth", 0,
		"watchdog: fire when the controller's ready-queue depth reaches this many workers (0 disables)")
	sloEpochChurn := flag.Int64("slo-epoch-churn", 0,
		"watchdog: fire when the membership epoch advances by at least this many bumps per evaluation (0 disables)")
	sloSilence := flag.Duration("slo-silence", 0,
		"watchdog: fire when no group forms for this long while >= 2 workers are active (0 disables)")
	watchdogEvery := flag.Duration("watchdog-every", time.Second,
		"watchdog evaluation cadence on the controller host (rank 0)")
	postmortemDir := flag.String("postmortem-dir", "",
		"rank 0: write a postmortem bundle, a directory (manifest, firing rules, metrics, scoreboard, trace ring, run config), here whenever a watchdog rule fires, and on SIGINT/SIGTERM; read them with preduce-analyze DIR")
	flag.Parse()

	list := strings.Split(*addrs, ",")
	n := len(list)
	if *addrs == "" || n < 2 {
		fail(fmt.Errorf("need -addrs with at least two entries"))
	}
	if *rank < 0 || *rank >= n {
		fail(fmt.Errorf("need -rank in [0,%d)", n))
	}
	if *segmentSize < 0 {
		fail(fmt.Errorf("need -segment-size >= 0"))
	}
	// Fail fast: every rank must agree on the schedule, and a bad one should
	// not cost a mesh timeout before being rejected.
	sched, err := loadSchedule(*schedulePath, n, *ctrlTimeout, *collTimeout)
	if err != nil {
		fail(err)
	}
	if *policyName != "" {
		// Fail fast: the controller re-validates the spec, but only after
		// the whole mesh has formed — a typo'd -policy should not cost a
		// mesh timeout on every rank.
		spec := policy.Spec{Name: *policyName, PMin: *pMin, PMax: *pMax, Window: *policyWindow}
		if err := spec.Validate(n, *p); err != nil {
			fail(err)
		}
	}

	// Deterministic shared dataset: every process builds the same one.
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: 10, Dim: 32, Examples: 6000, Separation: 3.5, Noise: 1, Seed: *seed,
	})
	if err != nil {
		fail(err)
	}
	train, test := ds.Split(0.8)

	// Observability is always on: the tracer ring and instruments are the
	// flight recorder's evidence, so they exist even when no -trace or
	// -telemetry-addr asks for them. Without -trace the ring stays small
	// (a bounded black box, last ~8k events) and is only ever read by a
	// postmortem capture; with -trace it gets the full export capacity.
	ringCap := *traceBuf
	if ringCap == 0 && *tracePath == "" {
		ringCap = 8192
	}
	tr2 := trace.New(trace.NewWallClock(), ringCap)
	// Stamp the recording rank into every event, so merged multi-rank
	// timelines self-identify without the .r<rank> file-name convention.
	tr2.SetOrigin(int32(*rank))
	ins := metrics.NewInstruments(n)

	// The health plane lives with the controller (rank 0 here): a
	// watchdog when any -slo-* rule is enabled or a -postmortem-dir asks
	// for operator-requested captures, and a flight recorder when the
	// bundle directory is set.
	slo := health.SLO{
		StalenessP95:   *sloStaleness,
		BlameRecent:    *sloBlame,
		RetryStorm:     *sloRetryStorm,
		SyncComponents: *sloSyncComponents,
		QueueDepth:     *sloQueueDepth,
		EpochChurn:     *sloEpochChurn,
		Silence:        sloSilence.Seconds(),
	}
	var wd *health.Watchdog
	var rec *health.Recorder
	if *rank == 0 && (slo != (health.SLO{}) || *postmortemDir != "") {
		wd = health.New(slo)
		if *postmortemDir != "" {
			runCfg, err := json.MarshalIndent(struct {
				N             int        `json:"n"`
				P             int        `json:"p"`
				Iters         int        `json:"iters"`
				Seed          int64      `json:"seed"`
				Dynamic       bool       `json:"dynamic"`
				Policy        string     `json:"policy,omitempty"`
				Straggle      string     `json:"straggle,omitempty"`
				Schedule      schedule   `json:"schedule"`
				SLO           health.SLO `json:"slo"`
				WatchdogEvery string     `json:"watchdog_every"`
			}{n, *p, *iters, *seed, *dynamic, *policyName, *straggle, sched,
				slo, watchdogEvery.String()}, "", "  ")
			if err != nil {
				fail(err)
			}
			rec = health.NewRecorder(*postmortemDir, tr2, ins, runCfg)
		}
	}

	fmt.Fprintf(os.Stderr, "rank %d: connecting mesh over %d ranks...\n", *rank, n)
	tcp, err := transport.NewTCPOpts(*rank, list, transport.TCPOptions{
		MeshTimeout:       *meshTimeout,
		HeartbeatInterval: *heartbeat,
		HeartbeatTimeout:  *heartbeatTimeout,
	})
	if err != nil {
		fail(err)
	}
	defer tcp.Close()

	var tr transport.Transport = tcp
	if len(sched.Partitions) > 0 {
		ftr, err := transport.NewFaultyEndpoint(tcp, transport.FaultPlan{
			Seed:       *seed,
			Partitions: sched.Partitions,
		})
		if err != nil {
			fail(err)
		}
		ftr.SetTracer(tr2) // fault-plane events (drops, partition windows) share the timeline
		tr = ftr
	}

	cfg := live.Config{
		N: n, P: *p,
		Spec:         model.Spec{Inputs: 32, Hidden: []int{24}, Classes: 10},
		Seed:         *seed,
		Train:        train,
		Test:         test,
		BatchSize:    16,
		Optimizer:    optim.Config{LR: 0.03, Momentum: 0.9, WeightDecay: 1e-4},
		Iters:        *iters,
		SegmentElems: *segmentSize,
		Initial:      sched.Initial,
		Elastic:      sched.Elastic,

		CtrlTimeout:       *ctrlTimeout,
		CollectiveTimeout: *collTimeout,

		Tracer:      tr2,
		Instruments: ins,

		Watchdog:      wd,
		WatchdogEvery: *watchdogEvery,
		Recorder:      rec,
	}
	if *retryMax > 1 {
		cfg.Retry = collective.RetryPolicy{
			MaxAttempts: *retryMax,
			BaseDelay:   *retryBase,
			Multiplier:  2,
			Jitter:      0.2,
		}
	}
	if *dynamic {
		cfg.Weighting = preduce.Dynamic
		cfg.Approx = preduce.ClosestIteration
	}
	if *policyName != "" {
		cfg.Policy = policy.Spec{Name: *policyName, PMin: *pMin, PMax: *pMax, Window: *policyWindow}
	}
	if *straggle != "" {
		sRank, sDelay, err := parseStraggle(*straggle, n)
		if err != nil {
			fail(err)
		}
		cfg.ComputeDelay = func(worker, iter int) time.Duration {
			if worker == sRank {
				return sDelay
			}
			return 0
		}
	}

	if *telemetryAddr != "" {
		ep, err := telemetry.Serve(*telemetryAddr, cfg.Instruments, wd)
		if err != nil {
			fail(err)
		}
		defer ep.Close()
		fmt.Fprintf(os.Stderr, "rank %d: telemetry on http://%s/metrics (health on /healthz and /readyz, pprof under /debug/pprof/)\n", *rank, ep.Addr)
	}

	// The blame estimator lives in the controller's process (rank 0 in
	// this deployment), so only the host's scoreboard carries data.
	if *scoreboard > 0 && *rank == 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(*scoreboard)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = telemetry.WriteScoreboard(os.Stderr, ins.Snapshot())
				}
			}
		}()
	}

	flushTrace := func() {
		if *tracePath == "" {
			return
		}
		path := rankPath(*tracePath, *rank)
		if err := trace.WriteFile(path, tr2); err != nil {
			fmt.Fprintf(os.Stderr, "rank %d: trace write failed: %v\n", *rank, err)
			return
		}
		fmt.Fprintf(os.Stderr, "rank %d: trace (%d events, %d dropped) written to %s\n",
			*rank, tr2.Len(), tr2.Dropped(), path)
	}

	// Graceful shutdown: an operator's Ctrl-C (or a scheduler's SIGTERM)
	// used to kill the process with the black box unread. Now it flushes
	// an operator-requested postmortem bundle (rank 0 with -postmortem-dir)
	// and any requested trace before exiting with the conventional
	// 128+signal status.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "rank %d: %v: flushing flight recorder\n", *rank, sig)
		if rec != nil {
			if path, err := rec.Capture("operator-requested", tr2.Now(), nil, wd.State()); err != nil {
				fmt.Fprintf(os.Stderr, "rank %d: postmortem capture failed: %v\n", *rank, err)
			} else if path != "" {
				fmt.Fprintf(os.Stderr, "rank %d: postmortem bundle written to %s\n", *rank, path)
			}
		}
		flushTrace()
		code := 130 // SIGINT
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()

	start := time.Now()
	rep, err := live.RunWorker(cfg, tr, *rank == 0)
	if err != nil {
		fail(err)
	}
	if *scoreboard > 0 && *rank == 0 {
		_ = telemetry.WriteScoreboard(os.Stderr, ins.Snapshot())
	}
	fmt.Fprintf(os.Stderr, "rank %d: done in %s\n", *rank, time.Since(start).Round(time.Millisecond))
	flushTrace()
	if rec != nil && len(rec.Written()) > 0 {
		fmt.Fprintf(os.Stderr, "rank %d: %d postmortem bundle(s) in %s (read them with preduce-analyze %[3]s)\n",
			*rank, len(rec.Written()), *postmortemDir)
	}
	if *commStats {
		fmt.Fprintf(os.Stderr, "rank %d: comms %s\n", *rank, rep.Comms.String())
	}
	if *rank == 0 {
		fmt.Printf("averaged-model accuracy: %.3f  groups: %d\n", rep.FinalAccuracy, rep.Groups)
	}
}

// rankPath inserts ".r<rank>" before the path's extension ("out.json" →
// "out.r0.json"), so all ranks can share one -trace value without
// clobbering each other's file.
func rankPath(path string, rank int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.r%d%s", strings.TrimSuffix(path, ext), rank, ext)
}

// parseStraggle parses "rank:dur" (e.g. "1:30ms") into a straggler
// injection target.
func parseStraggle(s string, n int) (int, time.Duration, error) {
	rankSpec, durSpec, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("straggle %q: want rank:dur (e.g. 1:30ms)", s)
	}
	var r int
	if _, err := fmt.Sscanf(strings.TrimSpace(rankSpec), "%d", &r); err != nil {
		return 0, 0, fmt.Errorf("straggle rank %q: %v", rankSpec, err)
	}
	if r < 0 || r >= n {
		return 0, 0, fmt.Errorf("straggle rank %d outside [0,%d)", r, n)
	}
	d, err := time.ParseDuration(strings.TrimSpace(durSpec))
	if err != nil {
		return 0, 0, fmt.Errorf("straggle duration %q: %v", durSpec, err)
	}
	if d <= 0 {
		return 0, 0, fmt.Errorf("straggle duration must be positive")
	}
	return r, d, nil
}

// schedule is the -schedule file: the founding membership, the elastic
// joins and drains, and the timed partitions, in the simulator's own types
// (hetero.ElasticSchedule, hetero.PartitionSchedule), so one scenario reads
// the same in both backends. Live joins and drains trigger on dispatched
// groups; partition windows are seconds since the fault transport was built.
type schedule struct {
	Initial    int                      `json:",omitempty"`
	Elastic    hetero.ElasticSchedule   `json:",omitempty"`
	Partitions hetero.PartitionSchedule `json:",omitempty"`
}

// loadSchedule reads a -schedule file and checks it for a world of n ranks;
// no file is the empty schedule.
func loadSchedule(path string, n int, ctrlTimeout, collTimeout time.Duration) (schedule, error) {
	if path == "" {
		return schedule{}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return schedule{}, err
	}
	defer f.Close()
	s, err := decodeSchedule(f, n, ctrlTimeout, collTimeout)
	if err != nil {
		return s, fmt.Errorf("-schedule %s: %w", path, err)
	}
	return s, nil
}

// decodeSchedule parses strict JSON (no unknown field, nothing after the
// object) and refuses a schedule the run could not follow. A partition is
// refused without both timeouts: it wraps the process's one TCP endpoint,
// which carries the control frames as well as the collectives, and a frame
// dropped in the window is dropped silently. With an unbounded wait (the
// default for both) a rank whose ready signal or group reply falls inside
// the window parks for good, healed partition or not.
func decodeSchedule(r io.Reader, n int, ctrlTimeout, collTimeout time.Duration) (schedule, error) {
	var s schedule
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return s, fmt.Errorf("trailing data after the schedule object")
	}
	founders := s.Initial
	if founders == 0 {
		founders = n
	}
	if err := s.Elastic.Validate(n, founders); err != nil {
		return s, err
	}
	if err := s.Partitions.Validate(n); err != nil {
		return s, err
	}
	if len(s.Partitions) > 0 && (ctrlTimeout <= 0 || collTimeout <= 0) {
		return s, fmt.Errorf("partitions drop control frames too: they need -ctrl-timeout and -collective-timeout (unbounded waits never notice a lost frame)")
	}
	return s, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
