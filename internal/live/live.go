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
// service core (service.go) with its in-process adapter (this file) and its
// multi-process one (worker.go, wire.go), crash/checkpoint/rejoin
// choreography, and run assembly.
//
// The runtime is fault tolerant in the sense of §4: a worker crash is
// detected by its group peers (the collective fails with a typed peer-down
// error), the survivors — whose models the out-of-place collective never
// wrote — re-signal ready, and the controller excludes the dead worker from
// all future groups.
// Because no model data flows through the controller, exclusion is a pure
// metadata operation. Crashed workers can rejoin from a checkpoint.
package live

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"partialreduce/internal/checkpoint"
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
	Alpha     float64
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
	// SegmentElems is the collective pipeline segment size in float64
	// elements: 0 selects collective.DefaultSegmentElems; negative is
	// rejected.
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

	// Crash maps worker id -> local iteration at which the worker crashes.
	// The crash lands at the worst possible moment for the protocol: the
	// worker dies immediately after sending that iteration's ready signal,
	// so the controller (not yet knowing) can form a group containing the
	// corpse and the surviving members must detect the failure inside the
	// collective and recover — exactly the hazard §4 describes.
	Crash map[int]int
	// Rejoin maps a crashed worker id -> delay after its crash at which it
	// restarts from its last checkpoint and re-enters the cluster. Only
	// workers present in Crash may appear here.
	Rejoin map[int]time.Duration
	// FailTimeout enables Run's staleness sweep: a worker with no sign of
	// life for this long is declared dead. It is the backstop for crashes
	// that peers cannot observe through a collective (e.g. a worker whose
	// queued signal can no longer fill a group). Run requires it when Crash
	// is non-empty; choose it well above the slowest legitimate iteration.
	// Zero disables it. RunWorker's detector is its receive loops instead.
	FailTimeout time.Duration

	// CtrlCrashAfter crashes the controller after that many groups have been
	// dispatched (0: never). The in-flight group replies are lost with it;
	// workers recover by re-sending their ready signals after CtrlTimeout.
	// Restart is warm (Snapshot/Restore) unless CtrlCold is set, in which
	// case the replacement controller is rebuilt purely from the re-sent
	// signals (plus the service's memory of known deaths, re-taught at once).
	CtrlCrashAfter int
	// CtrlCold selects the cold-rebuild failover path.
	CtrlCold bool
	// CtrlTimeout bounds a worker's wait for a group reply: on expiry the
	// worker re-sends its ready signal (idempotent — the service recognizes
	// retransmissions). Required when CtrlCrashAfter > 0; zero means wait
	// forever (safe only when the controller cannot crash).
	CtrlTimeout time.Duration

	// Tracer, when non-nil, records the run's timeline: worker iteration
	// spans (compute, signal-wait, collectives with their ring phases),
	// controller decisions, and failover events, all on one shared wall
	// clock (trace.NewWallClock). Nil disables tracing at zero cost.
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
	case c.FailTimeout < 0:
		return fmt.Errorf("live: negative fail timeout")
	case c.SegmentElems < 0:
		return fmt.Errorf("live: negative SegmentElems %d", c.SegmentElems)
	}
	for w, it := range c.Crash {
		if w < 0 || w >= c.N {
			return fmt.Errorf("live: crash worker %d out of range [0,%d)", w, c.N)
		}
		if it < 1 || it > c.Iters {
			return fmt.Errorf("live: crash iteration %d for worker %d outside [1,%d]", it, w, c.Iters)
		}
	}
	if len(c.Crash) >= c.N-1 {
		return fmt.Errorf("live: %d crashes leave fewer than 2 of %d workers", len(c.Crash), c.N)
	}
	if c.CtrlCrashAfter < 0 {
		return fmt.Errorf("live: negative CtrlCrashAfter")
	}
	if c.CtrlTimeout < 0 || c.CollectiveTimeout < 0 {
		return fmt.Errorf("live: negative timeout")
	}
	if c.CtrlCrashAfter > 0 && c.CtrlTimeout == 0 {
		return fmt.Errorf("live: CtrlCrashAfter needs CtrlTimeout (workers must re-send lost signals)")
	}
	if c.CtrlCrashAfter > 0 && c.CollectiveTimeout == 0 {
		return fmt.Errorf("live: CtrlCrashAfter needs CollectiveTimeout (a crash can strand a dispatched group; bounded collectives are the recovery path)")
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	for w, d := range c.Rejoin {
		if _, ok := c.Crash[w]; !ok {
			return fmt.Errorf("live: rejoin for worker %d which never crashes", w)
		}
		if d < 0 {
			return fmt.Errorf("live: negative rejoin delay for worker %d", w)
		}
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
	Rejoins       int     // workers re-admitted from a checkpoint
	Joins         int     // elastic scale-out admissions
	Drains        int     // graceful drain hand-offs started
	Decommissions int     // drains completed (member retired)
	StaleEpochs   int     // ready signals rejected for a stale world view
	CtrlRestarts  int     // controller crash/restart cycles survived
	WallTime      time.Duration
	WorkerIters   []int  // local iterations completed per worker
	Alive         []bool // final controller liveness vector
	Completed     []bool // workers that finished all their iterations
	// Comms aggregates data-plane statistics over every collective the run
	// executed (all workers, including aborted attempts' partial traffic).
	Comms collective.OpStats
}

// svcCall is one message on the service inbox: a core event from worker,
// applied on the service goroutine at controller-clock time now.
type svcCall struct {
	worker int
	event  func(c *svcCore, now float64)
}

// runtime bundles the state shared by the service, the workers, and the
// rejoin goroutines of one Run.
type runtime struct {
	cfg    Config
	world  []transport.Transport
	base   model.Model
	init   tensor.Vector
	shards []*data.Dataset

	inbox  chan svcCall
	runErr chan error
	wg     sync.WaitGroup

	iters  []int
	models []model.Model

	// readySeq[i] is worker i's last issued ready-signal sequence number.
	// Each index is touched only by the worker's current incarnation (crash →
	// rejoin hand-off is ordered by goroutine creation), so no lock is needed.
	readySeq []uint64

	commMu sync.Mutex
	comms  collective.OpStats

	// Owned by the service goroutine: the core, where each worker's pending
	// signal wants its answer, and when each worker was last heard from. Run
	// reads the core after ctrlDone closes (the happens-before edge).
	core      *svcCore
	replyTo   []chan engine.Directive
	lastHeard []time.Time
}

func newRuntime(cfg Config, world []transport.Transport) *runtime {
	base := cfg.Spec.Build(cfg.Seed)
	return &runtime{
		cfg:    cfg,
		world:  world,
		base:   base,
		init:   base.Params().Clone(),
		shards: cfg.Train.Shard(cfg.N),
		inbox:  make(chan svcCall, 4*cfg.N), // room for every worker's signal, report and retransmissions
		runErr: make(chan error, 2*cfg.N),   // a worker error plus a service error per rank
		iters:  make([]int, cfg.N),
		models: make([]model.Model, cfg.N),

		readySeq:  make([]uint64, cfg.N),
		replyTo:   make([]chan engine.Directive, cfg.N),
		lastHeard: make([]time.Time, cfg.N),
	}
}

// addComms folds a worker's local data-plane stats into the run total.
func (rt *runtime) addComms(s *collective.OpStats) {
	rt.commMu.Lock()
	rt.comms.Merge(*s)
	rt.commMu.Unlock()
}

// newController builds the run's controller: config, policy, telemetry.
func newController(cfg Config) (*controller.Controller, error) {
	ctrlCfg := controller.Config{
		N: cfg.N, P: cfg.P, Initial: cfg.Initial,
		Weighting: cfg.Weighting, Alpha: cfg.Alpha, Approx: cfg.Approx,
	}
	var pol policy.Policy
	if cfg.Policy.Enabled() {
		spec := cfg.Policy.Resolve(cfg.P)
		if spec.Name == policy.NameAdaptiveP && spec.PMin < cfg.P {
			// Adaptive groups can shrink to PMin; the sync window must be
			// sized for the smallest group or frozen avoidance would reject
			// them.
			ctrlCfg.Window = controller.MinWindow(cfg.N, spec.PMin)
		}
		var err error
		if pol, err = policy.New(cfg.Policy, cfg.N, cfg.P); err != nil {
			return nil, err
		}
	}
	ctrl, err := controller.New(ctrlCfg)
	if err != nil {
		return nil, err
	}
	ctrl.SetTracer(cfg.Tracer)
	ctrl.SetInstruments(cfg.Instruments)
	if pol != nil {
		if err := ctrl.SetPolicy(pol); err != nil {
			return nil, err
		}
	}
	return ctrl, nil
}

// fillController copies what the finished controller service c knows into
// the report and returns the run's controller counters.
func (r *Report) fillController(c *svcCore) controller.Stats {
	stats := c.stats()
	r.Aborts = stats.GroupsAborted
	r.Failures = stats.Failures
	r.Rejoins = stats.Rejoins
	r.Joins = stats.Joins
	r.Drains = stats.Drains
	r.Decommissions = stats.Decommissions
	r.StaleEpochs = stats.StaleEpochs
	r.CtrlRestarts = c.restarts
	r.Alive = c.ctrl.Alive()
	return stats
}

// Run trains with cfg over the given transport world (len(world) == N; entry
// i is worker i's endpoint). It blocks until every surviving worker completes
// its iterations and returns the report.
func Run(cfg Config, world []transport.Transport) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Crash) > 0 && cfg.FailTimeout == 0 {
		return nil, fmt.Errorf("live: crashes configured but FailTimeout unset (the staleness backstop is required)")
	}
	if len(world) != cfg.N {
		return nil, fmt.Errorf("live: %d transports for %d workers", len(world), cfg.N)
	}
	ctrl, err := newController(cfg)
	if err != nil {
		return nil, err
	}
	rt := newRuntime(cfg, world)
	stop := make(chan struct{})
	ctrlDone := make(chan struct{})
	go rt.service(ctrl, stop, ctrlDone)

	start := time.Now()
	// Ranks [initialOr, N) park: no goroutine until a join event admits them
	// (rt.join spawns the worker after the bootstrap transfer lands).
	for id := 0; id < cfg.initialOr(); id++ {
		id := id
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			rt.worker(rt.newWorker(id))
		}()
	}

	rt.wg.Wait()
	close(stop)
	<-ctrlDone
	select {
	case err := <-rt.runErr:
		return nil, err
	default:
	}

	// Average the completed replicas for inference (Alg. 2 line 8). Workers
	// that died and never rejoined hold stale models and are excluded.
	completed := rt.core.completed
	avg := tensor.NewVector(len(rt.init))
	n := 0
	for id, m := range rt.models {
		if completed[id] {
			avg.Add(m.Params())
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("live: no worker completed its iterations")
	}
	avg.Scale(1 / float64(n))
	rt.base.SetParams(avg)

	rep := &Report{
		FinalAccuracy: model.Accuracy(rt.base, cfg.Test),
		WallTime:      time.Since(start),
		WorkerIters:   rt.iters,
		Completed:     completed,
		Comms:         rt.comms,
	}
	stats := rep.fillController(rt.core)
	rep.Groups = stats.GroupsFormed - stats.GroupsAborted
	return rep, nil
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

// service is the in-process adapter of the controller service core: workers
// post core events on the inbox, it applies them one at a time, delivers the
// core's effects over reply channels and the shared transport world, and
// runs the staleness sweep that is this deployment's failure detector. It
// serializes all controller access and runs until stop closes (after every
// worker goroutine has exited), so a sender can never block on a vanished
// service. A core error does not end it — workers must still be answered to
// exit — but fails the run.
func (rt *runtime) service(ctrl *controller.Controller, stop, ctrlDone chan struct{}) {
	cfg := rt.cfg
	c := newSvcCore(cfg, ctrl, rt)
	rt.core = c
	for i := range rt.lastHeard {
		rt.lastHeard[i] = time.Now()
	}
	wdTick, healthNow, wdStop := healthClock(cfg)
	defer wdStop()
	defer func() {
		c.Exit(healthNow())
		close(ctrlDone)
	}()

	var sweep <-chan time.Time
	if cfg.FailTimeout > 0 {
		ticker := time.NewTicker(cfg.FailTimeout / 2)
		defer ticker.Stop()
		sweep = ticker.C
	}

	apply := func(call svcCall) {
		now := time.Now()
		rt.lastHeard[call.worker] = now
		call.event(c, unixSeconds(now))
		if c.err != nil {
			rt.runErr <- c.err
			c.err = nil
		}
	}
	for {
		select {
		case <-stop:
			// stop closes only after every worker goroutine exited, but their
			// final messages (Finished, mostly) may still sit in the inbox;
			// drain them so the completed vector is accurate.
			for {
				select {
				case call := <-rt.inbox:
					apply(call)
				default:
					return
				}
			}
		case now := <-sweep:
			// The sweep covers workers blocked in collectives too: a stuck
			// collective normally resolves through the peer-down/abort path
			// long before the timeout, so a member still silent after
			// FailTimeout is dead (or the timeout was chosen too tight —
			// pick it well above an iteration plus a collective).
			for w := 0; w < cfg.N; w++ {
				if c.suspect(w) && now.Sub(rt.lastHeard[w]) > cfg.FailTimeout {
					c.Lost(w)
				}
			}
		case <-wdTick:
			c.Tick(healthNow())
		case call := <-rt.inbox:
			apply(call)
		}
	}
}

// The core's effects, in-process: a reply is a send on the signal's buffered
// channel, an abort reaches straight into the member's endpoint, and a join
// is a goroutine. None of them can fail, so this adapter never reports Lost
// on an effect's behalf.
func (rt *runtime) reply(w int, _ uint64, d engine.Directive) { rt.replyTo[w] <- d }

func (rt *runtime) abort(w int, op uint32, _ int) { rt.world[w].AbortOp(op) }

func (rt *runtime) startJoin(j, donor int, op uint32) {
	rt.lastHeard[j] = time.Now()
	rt.wg.Add(1)
	go rt.join(j, donor, op)
}

// chanControl implements engine.Control over the in-process service inbox:
// ready signals wait for their answer (with idempotent retransmission on
// controller failover); failure reports and completion are plain posts. Posts
// cannot fail (the service outlives every worker goroutine), so no method
// here ever errors.
type chanControl struct {
	rt *runtime
	id int
	// epoch is the last world-view version the controller answered with;
	// stamped into every outgoing signal (0 until the first answer:
	// unversioned signals are always accepted).
	epoch uint64
}

// ready builds the worker's ready signal for iter as an inbox call, plus the
// buffered channel its one answer arrives on.
func (c *chanControl) ready(iter int) (svcCall, chan engine.Directive) {
	rt, id, epoch := c.rt, c.id, c.epoch
	rt.readySeq[id]++
	seq := rt.readySeq[id]
	reply := make(chan engine.Directive, 1)
	return svcCall{id, func(s *svcCore, now float64) {
		rt.replyTo[id] = reply
		s.Ready(id, iter, seq, epoch, now)
	}}, reply
}

func (c *chanControl) Signal(iter int) (engine.Directive, error) {
	d := c.await(c.ready(iter))
	if d.Epoch != 0 {
		// Adopt the controller's world view from every answer, so the next
		// signal is stamped with a current epoch (refresh answers exist
		// precisely to deliver this).
		c.epoch = d.Epoch
	}
	return d, nil
}

// await posts call and waits for its answer. With CtrlTimeout set the wait
// is bounded: on expiry the same signal (same sequence number, same reply
// channel) is re-posted, so a controller crash that swallowed the in-flight
// reply cannot strand the worker, while a reply that merely raced the timer
// is recognized by the core as already answered and consumed from the
// buffered channel here.
func (c *chanControl) await(call svcCall, reply chan engine.Directive) engine.Directive {
	c.rt.inbox <- call
	timeout := c.rt.cfg.CtrlTimeout
	if timeout <= 0 {
		return <-reply
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case d := <-reply:
			return d
		case <-timer.C:
			// The answer may have raced the timer into the buffer.
			select {
			case d := <-reply:
				return d
			default:
			}
			c.rt.inbox <- call // idempotent retransmission
			timer.Reset(timeout)
		}
	}
}

func (c *chanControl) SignalNoWait(iter int) {
	call, _ := c.ready(iter) // the reply is abandoned: the corpse never reads it
	c.rt.inbox <- call
}

func (c *chanControl) ReportDeath(dead int, _ controller.Group, opID uint32) error {
	c.rt.inbox <- svcCall{c.id, func(s *svcCore, _ float64) { s.Death(dead, opID) }}
	return nil
}

func (c *chanControl) ReportStuck(_ controller.Group, opID uint32) error {
	c.rt.inbox <- svcCall{c.id, func(s *svcCore, _ float64) { s.Stuck(opID) }}
	return nil
}

func (c *chanControl) Finished() error {
	c.rt.finished(c.id)
	return nil
}

func (rt *runtime) finished(id int) {
	rt.inbox <- svcCall{id, func(s *svcCore, _ float64) { s.Finished(id) }}
}

// newLiveWorker assembles rank id's engine worker: live environment
// (collective options, telemetry sinks, a data-plane stats accumulator at
// Env.Copts.Stats) plus fresh training state — a replica of base, a new
// optimizer, the rank's own sampler stream — with the configured crash
// injection armed.
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
		CrashAt:      cfg.Crash[id], // zero when id never crashes
	}
}

// restore puts worker w's replica, optimizer and loop counter at a
// transferred or checkpointed state; the restarted incarnation does not
// crash again.
func restore(w *engine.LiveWorker, params, velocity []float64, step, iter int) error {
	w.Model.SetParams(tensor.Vector(params))
	w.StartIter, w.CrashAt = iter, 0
	return w.Opt.Restore(tensor.Vector(velocity), step)
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
	if err := restore(w, st.Params, st.Velocity, st.Step, st.Iter); err != nil {
		return fmt.Errorf("live: worker %d bootstrap restore: %w", id, err)
	}
	cfg.Tracer.Instant(trace.KBootstrap, int32(id), int32(st.Iter), int64(donor), int64(len(st.Params)))
	return nil
}

// newWorker is newLiveWorker for this run's rank id, publishing its replica
// and progress to the run.
func (rt *runtime) newWorker(id int) *engine.LiveWorker {
	w := newLiveWorker(rt.cfg, id, rt.world[id], rt.base, rt.shards[id], rt.init)
	w.OnIter = func(it int) { rt.iters[id] = it }
	rt.models[id] = w.Model
	return w
}

// worker hands w's step loop to engine.RunPReduceWorker, then owns the
// runtime-specific epilogue — run-wide teardown on a hard error,
// checkpoint/rejoin choreography on a crash, silence when declared dead.
func (rt *runtime) worker(w *engine.LiveWorker) {
	id := w.Env.Rank
	defer rt.addComms(w.Env.Copts.Stats)
	out, err := engine.RunPReduceWorker(w, &chanControl{rt: rt, id: id})
	switch {
	case err != nil:
		// Hard transport error (e.g. endpoint closed): abort the whole run,
		// unblocking peers first.
		rt.runErr <- fmt.Errorf("live: worker %d collective: %w", id, err)
		for _, t := range rt.world {
			t.Close()
		}
		rt.finished(id)
	case out.Crashed:
		rt.crash(w, out.Iter)
		// No Finished: the cluster must detect the death.
	case out.DeadErr != nil:
		// We ourselves were declared dead; fall silent.
	case out.Drained:
		// Graceful elastic exit: the core already decommissioned us and
		// adjusted its accounting. No Finished — a drained rank did not
		// complete its iterations and is excluded from the final average.
	}
}

// join bootstraps parked rank id from the donor's served model state (under
// bootstrap op id op), reports in to the service, and runs the worker loop
// from the donor's iteration. It executes on its own goroutine, spawned by
// the service at donor-assignment time.
func (rt *runtime) join(id, donor int, op uint32) {
	defer rt.wg.Done()
	w := rt.newWorker(id)
	if err := bootstrapJoiner(rt.cfg, w, donor, op); err != nil {
		rt.addComms(w.Env.Copts.Stats)
		if transport.IsFailure(err) {
			// The donor died mid-transfer: hand the join back to the core,
			// which un-joins the rank.
			rt.inbox <- svcCall{id, func(c *svcCore, _ float64) { c.JoinAbort(id) }}
			return
		}
		rt.runErr <- err
		return
	}

	// Admission happened at donor-assignment time; reporting in only
	// refreshes the liveness beat, so the staleness sweep never counts the
	// bootstrap transfer against the first (possibly slow) batch.
	seen := make(chan struct{})
	rt.inbox <- svcCall{id, func(*svcCore, float64) { close(seen) }}
	<-seen
	rt.worker(w)
}

// crash completes a fail-stop crash of worker id: the engine loop already
// emitted the crash trace instant and left the ready signal for iter in
// flight (SignalNoWait), so the controller may form a group containing the
// corpse. If a rejoin is configured, the state at the crash point is
// checkpointed first (standing in for the periodic checkpoint a real
// deployment would have on disk) and a restart goroutine is scheduled.
func (rt *runtime) crash(w *engine.LiveWorker, iter int) {
	id := w.Env.Rank
	delay, willRejoin := rt.cfg.Rejoin[id]
	var snap []byte
	if willRejoin {
		vel, step := w.Opt.State()
		var buf bytes.Buffer
		err := checkpoint.Write(&buf, &checkpoint.State{
			Params:   w.Model.Params().Clone(),
			Velocity: vel,
			Iter:     int64(iter),
			Step:     int64(step),
		})
		if err != nil {
			rt.runErr <- fmt.Errorf("live: worker %d checkpoint: %w", id, err)
			willRejoin = false
		}
		snap = buf.Bytes()
	}

	transport.FailPeerEverywhere(rt.world, id)

	if willRejoin {
		rt.wg.Add(1)
		go rt.rejoin(id, snap, delay)
	}
}

// rejoin restarts a crashed worker from its checkpoint after delay: it
// rebuilds the model and optimizer from the snapshot, performs the
// re-admission handshake with the controller service (which reconciles the
// death if still undetected and lifts the transport down-marks), and resumes
// training from the checkpointed iteration.
func (rt *runtime) rejoin(id int, snap []byte, delay time.Duration) {
	defer rt.wg.Done()
	time.Sleep(delay)

	st, err := checkpoint.Read(bytes.NewReader(snap))
	if err != nil {
		rt.runErr <- fmt.Errorf("live: worker %d restore: %w", id, err)
		return
	}
	w := rt.newWorker(id)
	if err := restore(w, st.Params, st.Velocity, int(st.Step), int(st.Iter)); err != nil {
		rt.runErr <- fmt.Errorf("live: worker %d restore: %w", id, err)
		return
	}
	// A fresh sampler stream: the pre-crash stream died with the old
	// incarnation, and reusing its seed would replay the same batches.
	w.Sampler = data.NewSampler(rt.shards[id], rt.cfg.Seed*31+int64(id)+9973)

	admitted := make(chan struct{})
	rt.inbox <- svcCall{id, func(c *svcCore, _ float64) {
		c.Rejoin(id)
		transport.RevivePeerEverywhere(rt.world, id)
		close(admitted)
	}}
	<-admitted
	rt.worker(w)
}
