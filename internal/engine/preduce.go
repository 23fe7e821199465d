package engine

import (
	"fmt"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/metrics"
	"partialreduce/internal/policy"
	"partialreduce/internal/tensor"
)

// PReduceConfig configures the strategy.
type PReduceConfig struct {
	P         int                  // group size
	Weighting controller.Weighting // Constant or Dynamic
	Alpha     float64              // EMA decay for Dynamic (0 -> controller default)
	Approx    controller.ApproxRule
	Window    int // sync-graph window (0 -> controller minimum)
	// DisableGroupFilter turns group-frozen avoidance off (ablation only).
	DisableGroupFilter bool
	// Overlap hides group communication behind the next batch's computation
	// (the DDP-style pipelining §4 leaves as future work): a worker starts
	// its next batch immediately after signaling ready; the group's model
	// average lands mid-batch, and the in-flight gradient — computed on the
	// pre-aggregation snapshot — is applied on top of the aggregated model.
	Overlap bool
	// ZoneAffinity makes the controller prefer same-zone groups when the
	// cluster has a geo-distributed topology (cheap intra-DC collectives);
	// group-frozen avoidance still bridges zones periodically.
	ZoneAffinity bool
	// Policy selects a group-formation policy (internal/policy): the zero
	// value keeps the controller's built-in behavior, "adaptive-p" adapts
	// the group size between the spec's bounds from observed worker
	// cadence, "straggler-bias" pulls high-staleness workers into groups
	// first. When adaptive bounds allow shrinking below P and Window is 0,
	// the sync-graph window is sized for the smallest reachable group size
	// so frozen avoidance stays sound at every P the policy may choose.
	Policy policy.Spec
}

// PReduce is the paper's contribution, the partial-reduce training strategy
// (Algorithm 2), on the simulated cluster. Each worker computes a mini-batch
// gradient, applies it locally, and sends a ready signal to the controller;
// once P signals queue up, the controller forms a temporary group whose
// members average their models with constant (1/P) or dynamic
// (staleness-aware EMA) weights and immediately continue. Groups overlap in
// time, so no worker ever waits at a global barrier — the property that buys
// heterogeneity tolerance.
type PReduce struct {
	cfg PReduceConfig
}

// NewPReduce returns the strategy for cfg.
func NewPReduce(cfg PReduceConfig) *PReduce { return &PReduce{cfg: cfg} }

// Name implements cluster.Strategy: "CON P=3", "DYN P=3", "CON+OV P=3",
// "ADP P=4" (adaptive-p policy), "SBIAS P=4" (straggler-bias policy)...
func (p *PReduce) Name() string {
	tag := "CON"
	if p.cfg.Weighting == controller.Dynamic {
		tag = "DYN"
	}
	switch p.cfg.Policy.Name {
	case policy.NameAdaptiveP:
		tag = "ADP"
	case policy.NameStragglerBias:
		tag = "SBIAS"
	}
	if p.cfg.Overlap {
		tag += "+OV"
	}
	return fmt.Sprintf("%s P=%d", tag, p.cfg.P)
}

// WithPolicy returns a copy of the strategy with the given formation
// policy spec — how the CLI's -policy/-p-min/-p-max/-policy-window flags
// retrofit a policy onto the named P-Reduce strategies.
func (p *PReduce) WithPolicy(spec policy.Spec) *PReduce {
	cfg := p.cfg
	cfg.Policy = spec
	return NewPReduce(cfg)
}

func (p *PReduce) controllerConfig(c *cluster.Cluster) controller.Config {
	cfg := controller.Config{
		N:                  c.Cfg.N,
		Initial:            c.Cfg.Initial,
		P:                  p.cfg.P,
		Window:             p.cfg.Window,
		Weighting:          p.cfg.Weighting,
		Alpha:              p.cfg.Alpha,
		Approx:             p.cfg.Approx,
		DisableGroupFilter: p.cfg.DisableGroupFilter,
	}
	if p.cfg.ZoneAffinity {
		cfg.ZoneAffinity = true
		zones := make([]int, c.Cfg.N)
		for w := range zones {
			zones[w] = c.Cfg.Topology.ZoneOf(w)
		}
		cfg.Zones = zones
	}
	if cfg.Window == 0 && p.cfg.Policy.Enabled() {
		// An adaptive policy may form groups as small as PMin; the
		// sync-graph window must be able to witness connectivity at that
		// size, so size it for the smallest reachable P, not the
		// configured one.
		if r := p.cfg.Policy.Resolve(p.cfg.P); r.Name == policy.NameAdaptiveP && r.PMin < p.cfg.P {
			cfg.Window = controller.MinWindow(c.Cfg.N, r.PMin)
		}
	}
	return cfg
}

// Run implements cluster.Strategy.
func (p *PReduce) Run(c *cluster.Cluster) (*metrics.Result, error) {
	info, err := p.RunDetailed(c)
	return info.Result, err
}

// RunInfo carries a run's result plus the controller-side observables the
// analysis experiments need.
type RunInfo struct {
	Result *metrics.Result
	// Stats are the controller's activity counters (groups formed,
	// frozen-avoidance interventions, membership changes).
	Stats controller.Stats
	// MeanW is the empirical average synchronization matrix E[W_k] over the
	// run's groups (§3.2's Assumption 2 object); nil if no group formed.
	MeanW *tensor.Matrix
}

// RunDetailed runs training on the shared step engine — runOverlappedSim
// for the pipelined variant, otherwise runPReduceSim: the same training-step
// state machine the live runtime executes, driven here by the virtual clock —
// and returns the result together with the controller's statistics and the
// empirical E[W_k].
func (p *PReduce) RunDetailed(c *cluster.Cluster) (RunInfo, error) {
	ctrl, err := controller.New(p.controllerConfig(c))
	if err != nil {
		return RunInfo{}, err
	}
	var pol policy.Policy
	if p.cfg.Policy.Enabled() {
		if pol, err = policy.New(p.cfg.Policy, c.Cfg.N, p.cfg.P); err != nil {
			return RunInfo{}, err
		}
	}
	// The cluster's virtual-clock tracer and instruments (nil when tracing is
	// off) put ready/group-formed/staleness decisions on the same timeline as
	// the worker spans.
	ctrl.SetTracer(c.Tracer)
	ctrl.SetInstruments(c.Ins)
	ctrl.SetPolicy(pol)
	env := NewSimEnv(c)
	var res *metrics.Result
	switch {
	case !p.cfg.Overlap:
		res, err = runPReduceSim(env, ctrl, nil)
	case len(c.Cfg.Crashes) > 0 || len(c.Cfg.Partitions) > 0 || len(c.Cfg.Elastic) > 0 ||
		c.Cfg.InitialOr() < c.Cfg.N || c.Health != nil:
		err = fmt.Errorf("engine: overlapped P-Reduce models no crashes, partitions, elastic membership or watchdog")
	default:
		res, err = runOverlappedSim(env, ctrl)
	}
	if err != nil {
		return RunInfo{}, err
	}
	return RunInfo{Result: res, Stats: ctrl.Stats(), MeanW: ctrl.MeanW()}, nil
}
