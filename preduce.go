// Package preduce is a from-scratch Go implementation of partial reduce
// (P-Reduce), the heterogeneity-aware synchronization primitive for
// distributed data-parallel SGD from "Heterogeneity-Aware Distributed
// Machine Learning Training via Partial Reduce" (SIGMOD 2021).
//
// Instead of an all-reduce barrier over all N workers, each worker sends a
// tiny ready signal to a controller after every local mini-batch step; as
// soon as P signals queue up, the controller forms a temporary group whose
// members average their models — with constant 1/P weights or dynamic
// staleness-aware EMA weights — and immediately continue. Groups overlap in
// time, no worker waits for a straggler, and a sync-graph group filter
// prevents isolated sub-clusters.
//
// The package exposes three layers:
//
//   - A simulation runtime (Simulate): N simulated workers with real model
//     replicas and real SGD on a deterministic discrete-event cluster, with
//     per-worker compute-time heterogeneity models and an α–β communication
//     cost model. This is how the paper's evaluation is reproduced; see the
//     Experiments index in DESIGN.md.
//   - A live runtime (RunLive): goroutine workers, a controller service, and
//     genuine ring all-reduce collectives over in-process channels or TCP.
//   - Analysis tools: the expected synchronization matrix E[W], its spectral
//     bound ρ, and Theorem 1's learning-rate condition.
//
// ExampleSimulate and ExampleRunLive are runnable programs (go test -run
// Example -v .); cmd/preduce-bench is the full paper-evaluation harness
// (-exp geo|fig9|table1 for the geo-distributed, production-trace and
// heterogeneity scenarios).
package preduce

import (
	"io"

	"partialreduce/internal/baselines"
	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/engine"
	"partialreduce/internal/hetero"
	"partialreduce/internal/live"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/netmodel"
	"partialreduce/internal/optim"
	"partialreduce/internal/transport"
)

// Core types, re-exported from the implementation packages.
type (
	// SimConfig describes a simulated training run: workers, model, data,
	// optimizer, heterogeneity and network models, and stop conditions.
	SimConfig = cluster.Config
	// Strategy is a training algorithm over the simulated cluster.
	Strategy = cluster.Strategy
	// Result is a run's metrics: run time, #updates, per-update time,
	// accuracy curve.
	Result = metrics.Result
	// Point is one (time, updates, accuracy) sample of a run's curve.
	Point = metrics.Point

	// PReduceConfig configures the P-Reduce strategy.
	PReduceConfig = engine.PReduceConfig
	// Weighting selects constant or dynamic (staleness-aware) aggregation.
	Weighting = controller.Weighting
	// ApproxRule selects how dynamic weighting fills missing EMA slots.
	ApproxRule = controller.ApproxRule
	// ControllerConfig configures a standalone controller.
	ControllerConfig = controller.Config
	// Group is a controller-formed partial-reduce group.
	Group = controller.Group

	// Dataset is a labelled classification dataset.
	Dataset = data.Dataset
	// MixtureConfig describes a synthetic Gaussian-mixture dataset.
	MixtureConfig = data.MixtureConfig
	// Model is a trainable classifier over flat parameters.
	Model = model.Model
	// Spec describes a proxy model architecture.
	Spec = model.Spec
	// ModelBuilder constructs a model from a seed (Spec qualifies).
	ModelBuilder = model.Builder
	// Profile carries a paper CNN's parameter count and per-batch compute.
	Profile = model.Profile
	// OptimizerConfig is momentum-SGD hyperparameters.
	OptimizerConfig = optim.Config
	// HeteroModel samples per-worker batch durations.
	HeteroModel = hetero.Model
	// NetworkParams is the α–β communication cost model.
	NetworkParams = netmodel.Params
	// CrashEvent is one scheduled fail-stop (worker, time) in a simulated
	// run; the worker never comes back, as in the live runtime.
	CrashEvent = hetero.CrashEvent
	// CrashSchedule is a deterministic fail-stop schedule for
	// SimConfig.Crashes; P-Reduce absorbs the losses, All-Reduce halts (§4).
	CrashSchedule = hetero.CrashSchedule

	// LiveConfig describes a live (goroutine + collective) run.
	LiveConfig = live.Config
	// LiveReport summarizes a live run.
	LiveReport = live.Report
	// Transport is a live message-passing endpoint.
	Transport = transport.Transport
	// Loans is the caller's list of payloads Transport.Lend has out, so an
	// endpoint written outside this module can implement Lend.
	Loans = transport.Loans
)

// Aggregation weightings and approximation rules.
const (
	// Constant is the plain 1/P model average (§3.1).
	Constant = controller.Constant
	// Dynamic is the staleness-aware EMA weighting (§3.3).
	Dynamic = controller.Dynamic
	// InitialModel assigns missing EMA slots to the shared initial model —
	// the paper's conservative rule.
	InitialModel = controller.InitialModel
	// ClosestIteration assigns missing EMA slots to the nearest stored
	// version — the paper's alternative, and this library's recommended
	// default (see DESIGN.md).
	ClosestIteration = controller.ClosestIteration
)

// Strategy constructors.

// NewPReduce returns the partial-reduce strategy (the paper's contribution).
func NewPReduce(cfg PReduceConfig) Strategy { return engine.NewPReduce(cfg) }

// NewAllReduce returns the bulk-synchronous ring all-reduce baseline.
func NewAllReduce() Strategy { return baselines.NewAllReduce() }

// NewEagerReduce returns the Eager-Reduce partial-collective baseline.
func NewEagerReduce() Strategy { return baselines.NewEagerReduce() }

// NewADPSGD returns the asynchronous decentralized SGD baseline.
func NewADPSGD() Strategy { return baselines.NewADPSGD() }

// NewPSBSP returns the bulk-synchronous parameter-server baseline.
func NewPSBSP() Strategy { return baselines.NewPSBSP() }

// NewPSASP returns the asynchronous parameter-server baseline.
func NewPSASP() Strategy { return baselines.NewPSASP() }

// NewPSHETE returns the staleness-aware asynchronous PS baseline.
func NewPSHETE() Strategy { return baselines.NewPSHETE() }

// NewPSBK returns synchronous SGD with b backup workers.
func NewPSBK(b int) Strategy { return baselines.NewPSBK(b) }

// Simulate runs strategy on a fresh simulated cluster built from cfg and
// returns its metrics.
func Simulate(cfg SimConfig, strategy Strategy) (*Result, error) {
	c, err := cluster.New(cfg, strategy.Name())
	if err != nil {
		return nil, err
	}
	return strategy.Run(c)
}

// RunLive trains with real goroutine workers and collectives over the given
// transport world (one endpoint per worker).
func RunLive(cfg LiveConfig, world []Transport) (*LiveReport, error) {
	return live.Run(cfg, world)
}

// NewMemWorld returns an n-worker in-process transport world.
func NewMemWorld(n int) []Transport {
	eps := transport.NewMem(n)
	world := make([]Transport, n)
	for i, e := range eps {
		world[i] = e
	}
	return world
}

// NewTCP joins a TCP transport world as the given rank; addrs lists every
// rank's listen address. It blocks until the full mesh connects.
func NewTCP(rank int, addrs []string) (Transport, error) {
	return transport.NewTCP(rank, addrs)
}

// Heterogeneity model constructors.

// Homogeneous gives every worker the same expected batch time.
func Homogeneous(n int, base, jitter float64, seed int64) HeteroModel {
	return hetero.NewHomogeneous(n, base, jitter, seed)
}

// GPUSharing packs hl workers onto one accelerator (the paper's synthetic
// heterogeneous environment, §5.2).
func GPUSharing(n, hl int, base, jitter float64, seed int64) HeteroModel {
	return hetero.NewGPUSharing(n, hl, base, jitter, seed)
}

// ProductionTrace gives each worker a regime-switching slowdown trace (the
// paper's shared production cluster, §5.3).
func ProductionTrace(n int, base float64, seed int64) HeteroModel {
	return hetero.NewTrace(n, base, seed)
}

// DefaultNetwork returns the calibrated α–β network parameters.
func DefaultNetwork() NetworkParams { return netmodel.Default() }

// RandomCrashes draws a seeded fail-stop schedule: each worker (except rank
// 0) independently crashes with probability rate at a time uniform in
// (0, horizon). The draw is a pure function of its arguments, so the same
// schedule replays on every run.
func RandomCrashes(n int, rate, horizon float64, seed int64) CrashSchedule {
	return hetero.RandomCrashes(n, rate, horizon, seed)
}

// GaussianMixture generates a synthetic classification dataset.
func GaussianMixture(cfg MixtureConfig) (*Dataset, error) { return data.GaussianMixture(cfg) }

// Paper CNN profiles (true parameter counts, calibrated compute).
var (
	ResNet18    = model.ResNet18
	ResNet34    = model.ResNet34
	VGG16       = model.VGG16
	VGG19       = model.VGG19
	DenseNet121 = model.DenseNet121
)

// PaperOptimizer returns the paper's SGD hyperparameters (lr 0.1, momentum
// 0.9, weight decay 1e-4).
func PaperOptimizer() OptimizerConfig { return optim.Paper() }

// RunLiveAllReduce trains the live All-Reduce baseline on the given world —
// the synchronous comparison point for RunLive.
func RunLiveAllReduce(cfg LiveConfig, world []Transport) (*LiveReport, error) {
	return live.RunAllReduce(cfg, world)
}

// Topology adds per-worker link speeds and geo-distributed zones to the
// simulated fabric (the paper's communication heterogeneity, Case 1).
type Topology = netmodel.Topology

// GeoTopology returns a two-zone topology splitting n workers evenly, with
// crossLat seconds of latency and a crossBW bytes/second cap between zones.
func GeoTopology(n int, crossLat, crossBW float64) *Topology {
	return netmodel.GeoDistributed(n, crossLat, crossBW)
}

// Sampler draws mini-batches from a dataset with its own RNG stream.
type Sampler = data.Sampler

// Batch is a mini-batch of examples.
type Batch = data.Batch

// NewSampler returns a sampler over ds seeded with seed.
func NewSampler(ds *Dataset, seed int64) *Sampler { return data.NewSampler(ds, seed) }

// Accuracy returns the fraction of ds classified correctly by m.
func Accuracy(m Model, ds *Dataset) float64 { return model.Accuracy(m, ds) }

// NewDPSGD returns the synchronous decentralized (ring gossip) baseline.
func NewDPSGD() Strategy { return baselines.NewDPSGD() }

// WriteCurvesCSV exports run curves as CSV (strategy,time_s,updates,accuracy).
func WriteCurvesCSV(w io.Writer, results ...*Result) error {
	return metrics.WriteCurvesCSV(w, results...)
}

// WriteSummaryCSV exports one CSV row per run with the Table 1 metrics.
func WriteSummaryCSV(w io.Writer, results ...*Result) error {
	return metrics.WriteSummaryCSV(w, results...)
}

// ReplayTrace builds a heterogeneity model replaying recorded per-batch
// durations (CSV columns: worker,seconds).
func ReplayTrace(r io.Reader) (HeteroModel, error) {
	return hetero.ReadReplayCSV(r)
}
