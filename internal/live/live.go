// Package live is the runtime counterpart of the simulator: real goroutine
// workers training real model replicas, a controller service mediating
// ready signals, and P-Reduce groups executing genuine ring all-reduce
// collectives over an in-process or TCP transport. It follows the paper's
// prototype (§4): the controller carries only worker ids and iteration
// numbers — a few bytes — while model data moves exclusively through the
// group collectives.
//
// The training step itself is not defined here: workers execute
// engine.RunPReduceWorker — the same step state machine the simulator
// drives — over a LiveEnv (wall clock, real collectives) and an
// engine.Control. This package owns only the substrate: the controller
// service core (service.go), its one adapter — control frames under tags the
// collectives never use (worker.go, wire.go) — the rank lifecycle (park,
// bootstrap-join, train, drain, crash), and run assembly: Run drives every
// rank of an in-process world, RunWorker one rank of a multi-process one.
//
// The runtime is fault tolerant in the sense of §4: a worker crash is
// detected by its group peers (the collective fails with a typed peer-down
// error), the survivors — whose models the out-of-place collective never
// wrote — re-signal ready, and the controller excludes the dead worker from
// all future groups.
// Because no model data flows through the controller, exclusion is a pure
// metadata operation.
package live

import (
	"fmt"
	"sync"
	"time"

	"partialreduce/internal/collective"
	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/engine"
	"partialreduce/internal/health"
	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
	"partialreduce/internal/policy"
	"partialreduce/internal/tensor"
	"partialreduce/internal/trace"
	"partialreduce/internal/transport"
)

// Config describes a live P-Reduce run.
type Config struct {
	N         int
	P         int
	Spec      model.Builder
	Seed      int64
	Train     *data.Dataset
	Test      *data.Dataset
	BatchSize int
	Optimizer optim.Config
	Weighting controller.Weighting
	Approx    controller.ApproxRule
	// Policy selects a group-formation policy (see internal/policy). The
	// zero Spec leaves the controller's static behavior untouched. The
	// adaptive-p policy can shrink groups to Policy.PMin, so the controller
	// window is sized for PMin to keep the frozen-avoidance guarantee.
	Policy policy.Spec
	// Iters is the number of local iterations each worker performs.
	Iters int
	// ComputeDelay optionally injects artificial per-batch latency to
	// emulate heterogeneity on real hardware (nil for full speed).
	ComputeDelay func(worker, iter int) time.Duration
	// SegmentElems overrides the collective pipeline segment size in
	// float64 elements: 0 selects the transport's own frame size
	// (transport.Transport.FrameElems: 4 Ki in process, 32 Ki over TCP);
	// negative is rejected.
	SegmentElems int

	// Initial is the number of founding members: ranks [Initial, N) park —
	// no worker goroutine, no controller membership — until an Elastic join
	// event admits them. Zero selects N (every rank is a founder). N is thus
	// the cluster's capacity, not its population.
	Initial int
	// Elastic is the membership-change schedule: join events admit parked
	// ranks (bootstrapping model state from a live donor first), drain
	// events retire members gracefully (the drain lands at the worker's
	// next ready signal; it is never condemned). Events trigger on the
	// cluster-wide dispatched-group count, the live counterpart of the
	// simulator's applied-update count.
	Elastic hetero.ElasticSchedule

	// CtrlTimeout bounds a worker's wait for a group reply: on expiry the
	// worker re-sends its ready signal (idempotent — the service recognizes
	// retransmissions), and after ctrlResendLimit unanswered re-sends it
	// takes the controller for unreachable and withdraws — so choose it well
	// above a ninth of the longest wait a healthy run can see. Zero means
	// wait forever: safe only while no reply can be lost (no lossy control
	// link).
	CtrlTimeout time.Duration

	// Tracer, when non-nil, records the run's timeline: worker iteration
	// spans (compute, signal-wait, collectives with their ring phases) and
	// controller decisions, all on one shared wall clock (trace.NewWallClock). Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// Instruments, when non-nil, maintains the live queryable instruments
	// (staleness histogram, queue-depth series, per-worker barrier-wait
	// totals, sync-graph gauges, running CommStats) the telemetry endpoint
	// serves. Nil disables them at zero cost.
	Instruments *metrics.Instruments

	// Watchdog, when non-nil, arms the health plane: the controller
	// service evaluates it every WatchdogEvery (<= 0: 1s) inside the
	// controller's serialization domain — Instruments snapshot plus
	// queue depth and active count — and each newly firing rule captures
	// a postmortem bundle through Recorder. Evaluation reads the shared
	// wall clock (the Tracer's when one is attached, so breach times and
	// trace timestamps share an origin). Capture failures are
	// best-effort: monitoring must never kill training.
	Watchdog      *health.Watchdog
	WatchdogEvery time.Duration
	// Recorder is the flight recorder Watchdog breaches capture through;
	// nil records nothing (the watchdog still drives /healthz).
	Recorder *health.Recorder

	// CollectiveTimeout bounds every receive inside group collectives, so a
	// severed link or partition surfaces as a timeout instead of a hang.
	// Zero disables deadlines (and with them, retry).
	CollectiveTimeout time.Duration
	// Retry governs collective retry after timeouts (see
	// collective.RetryPolicy). Zero value: one attempt. A zero Retry.Seed is
	// replaced by Seed so the retry trace is reproducible per run seed.
	Retry collective.RetryPolicy
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("live: need N >= 2, got %d", c.N)
	case c.P < 2 || c.P > c.N:
		return fmt.Errorf("live: need 2 <= P <= N, got P=%d", c.P)
	case c.Spec == nil:
		return fmt.Errorf("live: model builder required")
	case c.Train == nil || c.Test == nil:
		return fmt.Errorf("live: train and test datasets required")
	case c.BatchSize < 1:
		return fmt.Errorf("live: batch size must be positive")
	case c.Iters < 1:
		return fmt.Errorf("live: need at least one iteration")
	case c.SegmentElems < 0:
		return fmt.Errorf("live: negative SegmentElems %d", c.SegmentElems)
	case c.CtrlTimeout < 0 || c.CollectiveTimeout < 0:
		return fmt.Errorf("live: negative timeout")
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if c.Policy.Enabled() {
		if err := c.Policy.Resolve(c.P).Validate(c.N, c.P); err != nil {
			return err
		}
	}
	if c.Initial != 0 && (c.Initial < 2 || c.Initial > c.N) {
		return fmt.Errorf("live: Initial %d outside [2,%d]", c.Initial, c.N)
	}
	if len(c.Elastic) > 0 || c.Initial != 0 {
		if err := c.Elastic.Validate(c.N, c.initialOr()); err != nil {
			return err
		}
	}
	return c.Optimizer.Validate()
}

// initialOr resolves the founding-member count: Initial, or N when zero.
func (c Config) initialOr() int {
	if c.Initial == 0 {
		return c.N
	}
	return c.Initial
}

// Report summarizes a live run.
type Report struct {
	FinalAccuracy float64 // accuracy of the averaged model (completed workers)
	Groups        int     // P-Reduce groups executed to completion
	Aborts        int     // groups torn down because a member died mid-collective
	Failures      int     // workers declared dead
	Joins         int     // elastic scale-out admissions
	Drains        int     // graceful drain hand-offs started
	Decommissions int     // drains completed (member retired)
	StaleEpochs   int     // ready signals rejected for a stale world view
	WallTime      time.Duration
	WorkerIters   []int  // local iterations completed per worker
	Alive         []bool // final controller liveness vector
	Completed     []bool // workers that finished all their iterations
	// Comms aggregates data-plane statistics over every collective the run
	// executed (all workers, including aborted attempts' partial traffic).
	Comms collective.OpStats
}

// newController builds the run's controller: config, policy, telemetry.
func newController(cfg Config) (*controller.Controller, error) {
	return engine.NewController(controller.Config{
		N: cfg.N, P: cfg.P, Initial: cfg.Initial,
		Weighting: cfg.Weighting, Approx: cfg.Approx,
	}, cfg.Policy, cfg.Tracer, cfg.Instruments)
}

// fillController copies what the finished run's controller knows into the
// report and returns its counters.
func (r *Report) fillController(ctrl *controller.Controller) controller.Stats {
	stats := ctrl.Stats()
	r.Aborts = stats.GroupsAborted
	r.Failures = stats.Failures
	r.Joins = stats.Joins
	r.Drains = stats.Drains
	r.Decommissions = stats.Decommissions
	r.StaleEpochs = stats.StaleEpochs
	r.Alive = ctrl.Alive()
	return stats
}

// Run trains with cfg over the given transport world (len(world) == N; entry
// i is worker i's endpoint). It blocks until every surviving worker completes
// its iterations and returns the report.
//
// Run is N rank loops plus the controller service, speaking the same control
// frames as a multi-process world — but over a control world of its own, with
// the controller on a rank no worker has. That keeps the control plane out of
// band: a fault plan on world never drops a control frame, and rank 0 can
// crash like any other. A rank that leaves abnormally fails its control
// endpoint, so the service's receive loop reports it Lost: Run needs no
// timeout to notice a death.
func Run(cfg Config, world []transport.Transport) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(world) != cfg.N {
		return nil, fmt.Errorf("live: %d transports for %d workers", len(world), cfg.N)
	}
	ctrl, err := newController(cfg)
	if err != nil {
		return nil, err
	}
	// Model, initial parameters and shards are built once and shared: every
	// rank only reads them.
	base := cfg.Spec.Build(cfg.Seed)
	init := base.Params().Clone()
	shards := cfg.Train.Shard(cfg.N)

	ctl := transport.NewMem(cfg.N + 1)
	closeAll := func() {
		for _, e := range ctl {
			e.Close()
		}
	}
	defer closeAll() // ends the abort listeners of ranks that left without a sentinel
	var svc *engine.ServiceCore
	var svcErr error
	svcDone := make(chan struct{})
	go func() {
		defer close(svcDone)
		if svc, svcErr = runControllerService(cfg, ctrl, newWireSink(ctl[cfg.N], cfg.N)); svcErr != nil {
			closeAll() // nobody will answer: fail every pending control receive
		}
	}()

	start := time.Now()
	ends := make([]rankEnd, cfg.N)
	err = eachRank(world, func(id int) (err error) {
		ends[id], err = runRank(cfg, world[id], ctl[id], cfg.N, base, init, shards[id])
		return err
	})
	<-svcDone
	if svcErr != nil {
		return nil, svcErr
	}
	if err != nil {
		return nil, err
	}

	// Average the completed replicas for inference (Alg. 2 line 8). Workers
	// that died, drained or never joined hold stale models and are excluded.
	// Every rank is in this process, so the average needs no gather.
	rep := &Report{Completed: svc.Completed(), WorkerIters: make([]int, cfg.N)}
	avg := tensor.NewVector(len(init))
	n := 0
	for id, end := range ends {
		rep.WorkerIters[id] = end.iter
		rep.Comms.Merge(*end.w.Env.Copts.Stats)
		if rep.Completed[id] {
			avg.Add(end.w.Model.Params())
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("live: no worker completed its iterations")
	}
	avg.Scale(1 / float64(n))
	base.SetParams(avg)
	rep.FinalAccuracy = model.Accuracy(base, cfg.Test)
	rep.WallTime = time.Since(start)
	stats := rep.fillController(ctrl)
	rep.Groups = stats.GroupsFormed - stats.GroupsAborted
	return rep, nil
}

// eachRank runs f once per rank of world, concurrently, and waits for all of
// them. A rank's error is a hard one (e.g. endpoint closed): the run is over,
// so the whole world is closed to unblock its peers, and the first error sent
// — the cause; the later ones are its echo — is returned.
func eachRank(world []transport.Transport, f func(id int) error) error {
	errc := make(chan error, len(world)) // one send per rank at most
	var wg sync.WaitGroup
	for id := range world {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(id); err != nil {
				errc <- fmt.Errorf("live: worker %d: %w", id, err)
				for _, t := range world {
					t.Close()
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// healthClock returns the watchdog's cadence and clock: tick fires every
// WatchdogEvery (<= 0: 1s; nil without a watchdog) and now reads the shared
// wall clock — the Tracer's when one is attached, so breach times and trace
// timestamps share an origin. The cadence only paces evaluation; the service
// core evaluates once more at exit, so a run shorter than it still reports.
func healthClock(cfg Config) (tick <-chan time.Time, now func() float64, stop func()) {
	start := time.Now()
	now = func() float64 { return time.Since(start).Seconds() }
	if cfg.Tracer != nil {
		now = cfg.Tracer.Now
	}
	if cfg.Watchdog == nil {
		return nil, now, func() {}
	}
	every := cfg.WatchdogEvery
	if every <= 0 {
		every = time.Second
	}
	ticker := time.NewTicker(every)
	return ticker.C, now, ticker.Stop
}

// unixSeconds is the controller clock: what Signal.Now and Join are stamped
// with (arrival spreads feed the blame ledger).
func unixSeconds(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// newLiveWorker assembles rank id's engine worker: live environment
// (collective options, telemetry sinks, a data-plane stats accumulator at
// Env.Copts.Stats) plus fresh training state — a replica of base, a new
// optimizer, the rank's own sampler stream.
func newLiveWorker(cfg Config, id int, tr transport.Transport, base model.Model, shard *data.Dataset, init tensor.Vector) *engine.LiveWorker {
	pol := cfg.Retry
	if pol.Seed == 0 {
		pol.Seed = cfg.Seed
	}
	env := engine.NewLiveEnv(id, tr, collective.Options{
		SegmentElems: cfg.SegmentElems,
		Stats:        new(collective.OpStats),
		Timeout:      cfg.CollectiveTimeout,
		Retry:        pol,
		Tracer:       cfg.Tracer,
		TraceTrack:   int32(id),
		TraceIter:    -1,
	}, cfg.Tracer, cfg.Instruments)
	m := base.Clone()
	return &engine.LiveWorker{
		Env:          env,
		Model:        m,
		Opt:          optim.NewSGD(cfg.Optimizer, m.NumParams()),
		Sampler:      data.NewSampler(shard, cfg.Seed*31+int64(id)),
		Init:         init,
		Iters:        cfg.Iters,
		BatchSize:    cfg.BatchSize,
		ComputeDelay: cfg.ComputeDelay,
	}
}

// bootstrapJoiner receives the donor's served model state under bootstrap op
// id op and installs it in joining worker w, which then starts at the donor's
// iteration. A transport failure (transport.IsFailure) means the donor died
// mid-transfer: the caller reports a join abort and the rank stays parked.
func bootstrapJoiner(cfg Config, w *engine.LiveWorker, donor int, op uint32) error {
	id := w.Env.Rank
	st, err := collective.BootstrapRecv(w.Env.Trans, donor, op, w.Env.Copts)
	if err != nil {
		return fmt.Errorf("live: worker %d bootstrap from %d: %w", id, donor, err)
	}
	w.Model.SetParams(tensor.Vector(st.Params))
	w.StartIter = st.Iter
	if err := w.Opt.Restore(tensor.Vector(st.Velocity), st.Step); err != nil {
		return fmt.Errorf("live: worker %d bootstrap restore: %w", id, err)
	}
	cfg.Tracer.Instant(trace.KBootstrap, int32(id), int32(st.Iter), int64(donor), int64(len(st.Params)))
	return nil
}
