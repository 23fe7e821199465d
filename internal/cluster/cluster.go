// Package cluster is the shared substrate every training strategy runs on:
// N simulated workers, each holding a real model replica, an SGD optimizer
// with worker-local momentum, and a sampler over its data shard, all driven
// by one discrete-event engine. Strategies (P-Reduce and the baselines)
// schedule compute and communication events against this substrate; gradient
// math is executed for real, while durations come from the heterogeneity and
// network cost models. This is the simulator DESIGN.md documents as the
// substitute for the paper's GPU cluster.
package cluster

import (
	"fmt"
	"math"

	"partialreduce/internal/data"
	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/netmodel"
	"partialreduce/internal/optim"
	"partialreduce/internal/sim"
	"partialreduce/internal/tensor"
	"partialreduce/internal/trace"
)

// Config describes one training run.
type Config struct {
	N int // worker capacity (rank space)
	// Initial is the founding membership size: ranks [Initial, N) start
	// parked and only enter training when an Elastic join admits them. Zero
	// selects N (every rank is a founder — the non-elastic default).
	Initial   int
	Spec      model.Builder // proxy model architecture (a model.Spec)
	Seed      int64         // master seed (model init, samplers, strategy RNG)
	Train     *data.Dataset
	Test      *data.Dataset
	BatchSize int
	Optimizer optim.Config
	Profile   model.Profile   // wire size + reference compute time
	Hetero    hetero.Model    // per-worker compute durations
	Net       netmodel.Params // communication costs
	// Topology optionally adds per-worker link speeds and geo-distributed
	// zones (the paper's communication heterogeneity, Case 1); nil means a
	// flat fabric.
	Topology *netmodel.Topology
	// Crashes is a deterministic fail-stop schedule (§4). It takes effect
	// only for strategies that call ScheduleCrashes (P-Reduce excludes the
	// corpse and keeps training; All-Reduce halts, reproducing the paper's
	// asymmetry); other baselines ignore it.
	Crashes hetero.CrashSchedule
	// Partitions is a deterministic timed network-partition schedule: a group
	// collective whose members straddle an active partition cannot complete.
	// Strategies that model bounded-wait recovery (P-Reduce) retry per the
	// Retry model and abort when the budget is exhausted; strategies that
	// ignore it hang conceptually, which the MaxTime cutoff records as
	// non-convergence.
	Partitions hetero.PartitionSchedule
	// Retry models the live runtime's collective retry policy in virtual
	// seconds. The zero value gives one attempt with a one-batch timeout.
	Retry RetryModel
	// Elastic is a deterministic membership-change schedule: scale-out
	// joins bootstrap a parked rank from a live donor, graceful drains
	// retire a member at its next ready point. Strategies that understand
	// elasticity (P-Reduce) act on it; others ignore it.
	Elastic hetero.ElasticSchedule

	// TraceCap enables virtual-clock tracing: 0 disables it (the default —
	// parameter sweeps stay untraced), negative selects
	// trace.DefaultCapacity, positive sets the event-ring size. The tracer
	// reads the engine's virtual clock, so a same-seed replay records a
	// byte-identical trace.
	TraceCap int

	Threshold  float64 // stop when the averaged model reaches this accuracy
	EvalEvery  int     // evaluate every EvalEvery updates (default 25)
	MaxUpdates int     // safety cap (default 200000)
	MaxTime    float64 // virtual-second horizon (default 1e7)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("cluster: need N >= 1, got %d", c.N)
	case c.Train == nil || c.Test == nil:
		return fmt.Errorf("cluster: train and test datasets required")
	case c.Spec == nil:
		return fmt.Errorf("cluster: model builder required")
	case c.BatchSize < 1:
		return fmt.Errorf("cluster: batch size must be positive")
	case c.Hetero == nil:
		return fmt.Errorf("cluster: heterogeneity model required")
	case c.Threshold <= 0 || c.Threshold > 1:
		return fmt.Errorf("cluster: threshold must be in (0,1], got %v", c.Threshold)
	case c.Train.Len() < c.N:
		return fmt.Errorf("cluster: %d examples cannot shard across %d workers", c.Train.Len(), c.N)
	}
	if err := c.Optimizer.Validate(); err != nil {
		return err
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if err := c.Topology.Validate(c.N); err != nil {
		return err
	}
	if c.Initial != 0 && (c.Initial < 2 || c.Initial > c.N) {
		return fmt.Errorf("cluster: need 2 <= Initial <= N, got Initial=%d N=%d", c.Initial, c.N)
	}
	if len(c.Elastic) > 0 || c.Initial != 0 {
		if err := c.Elastic.Validate(c.N, c.InitialOr()); err != nil {
			return err
		}
	}
	if err := c.Crashes.Validate(c.N, 1); err != nil {
		return err
	}
	if err := c.Partitions.Validate(c.N); err != nil {
		return err
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	return c.Net.Validate()
}

// RetryModel is the simulator's mirror of collective.RetryPolicy, in virtual
// seconds and without jitter (the event engine is already deterministic, so a
// jitterless model keeps the fault trace byte-reproducible).
type RetryModel struct {
	// MaxAttempts bounds total attempts per collective (0 or 1: no retry).
	MaxAttempts int
	// Timeout is the virtual time a failing attempt blocks its members before
	// the deadline fires (0: one batch-compute, set at run time by the
	// strategy via TimeoutOr).
	Timeout float64
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it, capped at MaxDelay (0: uncapped).
	BaseDelay float64
	MaxDelay  float64
}

// Validate reports whether the model is usable.
func (r RetryModel) Validate() error {
	switch {
	case r.MaxAttempts < 0:
		return fmt.Errorf("cluster: negative retry attempts")
	case r.Timeout < 0 || r.BaseDelay < 0 || r.MaxDelay < 0:
		return fmt.Errorf("cluster: negative retry duration")
	}
	return nil
}

// Attempts returns the effective attempt budget (at least 1).
func (r RetryModel) Attempts() int {
	if r.MaxAttempts < 1 {
		return 1
	}
	return r.MaxAttempts
}

// TimeoutOr returns the effective attempt timeout, falling back to def.
func (r RetryModel) TimeoutOr(def float64) float64 {
	if r.Timeout > 0 {
		return r.Timeout
	}
	return def
}

// Backoff returns the delay before attempt k+1 (k >= 1 completed attempts).
func (r RetryModel) Backoff(k int) float64 {
	d := math.Ldexp(r.BaseDelay, max(k-1, 0))
	if r.MaxDelay > 0 {
		d = min(d, r.MaxDelay)
	}
	return d
}

// PartitionSplits reports whether an active partition separates members at
// virtual time t.
func (c *Cluster) PartitionSplits(members []int, t float64) bool {
	return c.Cfg.Partitions.SplitsAt(members, t)
}

// InitialOr returns the effective founding membership size (N when Initial
// is zero).
func (c Config) InitialOr() int {
	if c.Initial == 0 {
		return c.N
	}
	return c.Initial
}

func (c *Config) applyDefaults() {
	if c.EvalEvery == 0 {
		c.EvalEvery = 25
	}
	if c.MaxUpdates == 0 {
		c.MaxUpdates = 200_000
	}
	if c.MaxTime == 0 {
		c.MaxTime = 1e7
	}
}

// Worker is one simulated training process.
type Worker struct {
	ID      int
	Model   model.Model
	Opt     *optim.SGD
	Sampler *data.Sampler
	Iter    int // completed local iterations

	grad     tensor.Vector
	snapshot tensor.Vector // params at compute start (for inconsistent reads)
	live     tensor.Vector // scratch for restoring params around a gradient
	batch    *data.Batch
}

// Params returns the worker's live parameter vector.
func (w *Worker) Params() tensor.Vector { return w.Model.Params() }

// Cluster binds workers, engine, dataset shards, and metrics for one run.
type Cluster struct {
	Cfg     Config
	Eng     *sim.Engine
	Workers []*Worker
	Init    tensor.Vector // the shared initial model x₁ (for dynamic P-Reduce)
	Track   *metrics.Tracker
	// Tracer records virtual-clock trace events when Config.TraceCap enables
	// it; nil otherwise (every recording site is nil-safe).
	Tracer *trace.Tracer
	// Ins aggregates the run's observability instruments (staleness
	// histogram, queue depth, sync-graph gauges) when tracing is enabled,
	// folded from Tracer's events; nil otherwise. Strategies that use the
	// controller attach it there.
	Ins *metrics.Instruments

	// EvalOverride, when set, replaces the averaged-replica evaluation:
	// parameter-server strategies evaluate the server's global model, and
	// Eager-Reduce its reference model.
	EvalOverride func() float64

	// Dead marks fail-stopped workers. Dead replicas are excluded from
	// EvalAverage (their parameters are frozen corpse state, not trained
	// models). Strategies flip entries via Kill/Revive.
	Dead []bool

	evalModel model.Model   // scratch replica for evaluating averaged params
	evalBuf   tensor.Vector // scratch average buffer
	updates   int
}

// New builds a cluster: shards the training set, replicates the model with
// one shared initialization (every paper strategy starts all replicas at the
// same point), and seeds independent sampler streams.
func New(cfg Config, strategyName string) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()

	c := &Cluster{
		Cfg:   cfg,
		Eng:   &sim.Engine{},
		Track: metrics.NewTracker(strategyName, cfg.Profile.Name, cfg.Threshold),
	}
	if cfg.TraceCap != 0 {
		// The tracer shares the engine's virtual clock: a same-seed replay
		// schedules identical events at identical virtual times, so the
		// recorded trace is byte-identical across replays.
		c.Tracer = trace.New(trace.FuncClock(c.Eng.Now), cfg.TraceCap)
		c.Ins = metrics.NewInstruments(cfg.N)
		c.Tracer.SetSink(c.Ins.Observe)
	}
	base := cfg.Spec.Build(cfg.Seed)
	c.Init = base.Params().Clone()
	c.evalModel = base.Clone()
	c.evalBuf = tensor.NewVector(base.NumParams())

	c.Dead = make([]bool, cfg.N)
	// Ranks outside the founding membership park as dead until an elastic
	// join bootstraps and revives them; EvalAverage must not count their
	// untrained replicas.
	for i := cfg.InitialOr(); i < cfg.N; i++ {
		c.Dead[i] = true
	}
	shards := cfg.Train.Shard(cfg.N)
	c.Workers = make([]*Worker, cfg.N)
	for i := range c.Workers {
		c.Workers[i] = &Worker{
			ID:       i,
			Model:    base.Clone(),
			Opt:      optim.NewSGD(cfg.Optimizer, base.NumParams()),
			Sampler:  data.NewSampler(shards[i], mix(cfg.Seed, int64(i))),
			grad:     tensor.NewVector(base.NumParams()),
			snapshot: tensor.NewVector(base.NumParams()),
			live:     tensor.NewVector(base.NumParams()),
		}
	}
	return c, nil
}

func mix(seed, id int64) int64 { return seed*1_000_003 + id*7919 + 1 }

// ComputeTime samples the duration of the batch worker w starts now. Hetero
// models are constructed with the profile's BatchCompute as their base, so
// no rescaling happens here.
func (c *Cluster) ComputeTime(w *Worker) float64 {
	return c.Cfg.Hetero.ComputeTime(w.ID, c.Eng.Now())
}

// Snapshot records w's current parameters as the basis of its next gradient
// (the model version the worker "reads" when its batch starts). Strategies
// call it at compute-start; AD-PSGD's inconsistent averaging may change the
// live parameters before the gradient lands.
func (c *Cluster) Snapshot(w *Worker) { w.snapshot.CopyFrom(w.Params()) }

// Gradient computes w's mini-batch gradient at its snapshot into w's buffer
// and returns (gradient, loss). The returned vector is owned by the worker
// and valid until its next Gradient call.
func (c *Cluster) Gradient(w *Worker) (tensor.Vector, float64) {
	w.batch = w.Sampler.Sample(w.batch, c.Cfg.BatchSize)
	w.live.CopyFrom(w.Params())
	w.Model.SetParams(w.snapshot)
	loss := w.Model.Gradient(w.grad, w.batch)
	w.Model.SetParams(w.live)
	return w.grad, loss
}

// GradientAtCurrent computes w's gradient at its live parameters (used by
// synchronous strategies where no one mutates params mid-batch).
func (c *Cluster) GradientAtCurrent(w *Worker) (tensor.Vector, float64) {
	w.batch = w.Sampler.Sample(w.batch, c.Cfg.BatchSize)
	loss := w.Model.Gradient(w.grad, w.batch)
	return w.grad, loss
}

// WireBytes returns the message size of one model or gradient.
func (c *Cluster) WireBytes() int64 { return c.Cfg.Profile.WireBytes() }

// Communication cost helpers. Every strategy charges transfers through
// these, so a Topology (per-worker links, geo zones) transparently affects
// all of them.

// Ring prices one executed ring all-reduce among members and charges its
// traffic: the price and the charge are one call, so a ring a strategy waits
// for is a ring the run's comm columns count. It returns the modeled
// duration for the caller to charge the event engine. Call it once per
// attempt: an attempt that later times out still moved (some of) its bytes,
// exactly as the live runtime counts aborted attempts' partial traffic.
func (c *Cluster) Ring(members []int) float64 {
	if c.Cfg.Topology != nil {
		return c.chargeRing(len(members), c.Cfg.Topology.RingAllReduce(c.Cfg.Net, members, c.WireBytes()))
	}
	return c.chargeRing(len(members), c.Cfg.Net.RingAllReduce(len(members), c.WireBytes()))
}

// RingAll prices and charges one executed full-cluster ring all-reduce.
func (c *Cluster) RingAll() float64 {
	if c.Cfg.Topology == nil {
		return c.chargeRing(c.Cfg.N, c.Cfg.Net.RingAllReduce(c.Cfg.N, c.WireBytes()))
	}
	members := make([]int, c.Cfg.N)
	for i := range members {
		members[i] = i
	}
	return c.Ring(members)
}

// PSTime returns worker w's parameter-server push/pull round trip.
func (c *Cluster) PSTime(w int) float64 {
	if c.Cfg.Topology != nil {
		return c.Cfg.Topology.PSExchange(c.Cfg.Net, w, c.WireBytes())
	}
	return c.Cfg.Net.PSExchange(c.WireBytes())
}

// PSTimeMax returns the slowest worker's PS round trip (the synchronous
// round cost).
func (c *Cluster) PSTimeMax() float64 {
	var m float64
	for w := 0; w < c.Cfg.N; w++ {
		if t := c.PSTime(w); t > m {
			m = t
		}
	}
	return m
}

// PairTime returns the duration of an atomic pairwise model average.
func (c *Cluster) PairTime(a, b int) float64 {
	if c.Cfg.Topology != nil {
		return c.Cfg.Topology.PairAverage(c.Cfg.Net, a, b, c.WireBytes())
	}
	return c.Cfg.Net.PairAverage(c.WireBytes())
}

// Modeled traffic accounting: the simulator's summary carries the same
// comm columns the live runtime measures. A ring is charged inside Ring and
// RingAll; a point-to-point exchange is priced (PSTime, PairTime) and charged
// (ChargeExchange) apart, because the price alone is also a query —
// PSTimeMax probes every worker to find the slowest, which must not count as
// N transfers.

// chargeRing records the traffic of one executed ring all-reduce among g
// members and returns ring: every member ships 2(g−1)/g of the tensor in
// each direction, so the group total is 2(g−1)·WireBytes both sent and
// received. ring is the modeled duration of the collective; each of the g
// members spends it split evenly between the two symmetric ring phases, so
// the run's ReduceScatterS/AllGatherS columns accumulate g·ring/2 cumulative
// seconds per phase — the modeled counterpart of the live runtime's measured
// phase wall time.
func (c *Cluster) chargeRing(g int, ring float64) float64 {
	if g < 2 {
		return ring
	}
	b := 2 * int64(g-1) * c.WireBytes()
	half := float64(g) * ring / 2
	c.Track.AddComms(metrics.CommStats{
		Ops: 1, BytesSent: b, BytesRecv: b,
		ReduceScatterS: half, AllGatherS: half,
	})
	return ring
}

// ChargeExchange records n executed point-to-point model exchanges (a PS
// push/pull round trip, or one half of a pairwise average): each moves the
// full tensor both ways.
func (c *Cluster) ChargeExchange(n int) {
	if n < 1 {
		return
	}
	b := int64(n) * c.WireBytes()
	c.Track.AddComms(metrics.CommStats{Ops: 1, BytesSent: b, BytesRecv: b})
}

// RecordUpdate counts one synchronization update, evaluates the averaged
// model on schedule, and stops the engine when the run converges or exceeds
// its budgets. Strategies must call it once per update event.
func (c *Cluster) RecordUpdate() {
	c.updates++
	c.Track.Update(c.Eng.Now())
	if c.updates%c.Cfg.EvalEvery == 0 {
		if c.Track.Observe(c.Eng.Now(), c.eval()) {
			c.Eng.Stop()
			return
		}
	}
	if c.updates >= c.Cfg.MaxUpdates || c.Eng.Now() >= c.Cfg.MaxTime {
		c.Track.Cutoff(c.Eng.Now())
		c.Eng.Stop()
	}
}

// Updates returns the number of updates recorded so far.
func (c *Cluster) Updates() int { return c.updates }

func (c *Cluster) eval() float64 {
	if c.EvalOverride != nil {
		return c.EvalOverride()
	}
	return c.EvalAverage()
}

// EvalAverage evaluates the test accuracy of the average of the surviving
// worker models — the paper's inference model (Alg. 2 line 8). Dead replicas
// are excluded: their parameters froze at crash time.
func (c *Cluster) EvalAverage() float64 {
	c.evalBuf.Zero()
	alive := 0
	for _, w := range c.Workers {
		if c.Dead[w.ID] {
			continue
		}
		c.evalBuf.Add(w.Params())
		alive++
	}
	if alive == 0 {
		return 0
	}
	c.evalBuf.Scale(1 / float64(alive))
	return c.EvalParams(c.evalBuf)
}

// Kill marks worker w fail-stopped. Idempotent.
func (c *Cluster) Kill(w int) { c.Dead[w] = true }

// Revive clears the parked mark of w when an elastic join bootstraps it.
func (c *Cluster) Revive(w int) { c.Dead[w] = false }

// AliveCount returns the number of workers not currently dead.
func (c *Cluster) AliveCount() int {
	n := 0
	for _, d := range c.Dead {
		if !d {
			n++
		}
	}
	return n
}

// ScheduleCrashes arms the configured fail-stop schedule on the event
// engine. For each event the worker is marked dead for good and onCrash
// fires. Strategies that support faults call this once at the start of Run;
// strategies that never call it simply ignore the schedule.
func (c *Cluster) ScheduleCrashes(onCrash func(w int)) {
	for _, e := range c.Cfg.Crashes {
		e := e
		c.Eng.At(e.At, func() {
			if c.Dead[e.Worker] {
				return
			}
			c.Kill(e.Worker)
			c.Tracer.Instant(trace.KCrash, int32(e.Worker), int32(c.Workers[e.Worker].Iter), 0, 0)
			onCrash(e.Worker)
		})
	}
}

// EvalParams evaluates the test accuracy of an arbitrary parameter vector.
func (c *Cluster) EvalParams(p tensor.Vector) float64 {
	c.evalModel.SetParams(p)
	return model.Accuracy(c.evalModel, c.Cfg.Test)
}

// Finish seals and returns the run's result. Call after the engine stops.
func (c *Cluster) Finish() *metrics.Result {
	c.Track.Cutoff(c.Eng.Now())
	if !c.Track.Converged() {
		// Record a final point so curves always end at the cutoff state.
		c.Track.Observe(c.Eng.Now(), c.eval())
	}
	return c.Track.Result()
}

// Strategy is a training algorithm over the cluster substrate.
type Strategy interface {
	// Name identifies the strategy in results ("AR", "CON P=3", ...).
	Name() string
	// Run executes training to convergence or cutoff and returns the result.
	Run(c *Cluster) (*metrics.Result, error)
}
