package engine

import (
	"fmt"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/metrics"
	"partialreduce/internal/policy"
	"partialreduce/internal/tensor"
	"partialreduce/internal/trace"
)

// PReduceConfig configures the strategy.
type PReduceConfig struct {
	P         int                  // group size
	Weighting controller.Weighting // Constant or Dynamic
	Approx    controller.ApproxRule
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
	// first. When adaptive bounds allow shrinking below P, the sync-graph
	// window is sized for the smallest reachable group size (NewController)
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
		Weighting:          p.cfg.Weighting,
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
	return cfg
}

// NewController builds a P-Reduce controller from cfg with formation policy
// pol, wired to the tracer and instruments (either may be nil): the one
// constructor the simulator and the live runtime share. An adaptive policy
// may form groups as small as PMin, so a zero cfg.Window is sized for the
// smallest reachable group, not the configured P: the sync-graph window must
// witness connectivity at every size the policy may choose.
func NewController(cfg controller.Config, pol policy.Spec, tr *trace.Tracer, ins *metrics.Instruments) (*controller.Controller, error) {
	var p policy.Policy
	if pol.Enabled() {
		var err error
		if p, err = policy.New(pol, cfg.N, cfg.P); err != nil {
			return nil, err
		}
		if r := pol.Resolve(cfg.P); cfg.Window == 0 && r.Name == policy.NameAdaptiveP && r.PMin < cfg.P {
			cfg.Window = controller.MinWindow(cfg.N, r.PMin)
		}
	}
	ctrl, err := controller.New(cfg)
	if err != nil {
		return nil, err
	}
	ctrl.SetTracer(tr)
	ctrl.SetInstruments(ins)
	ctrl.SetPolicy(p)
	return ctrl, nil
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

// RunDetailed runs training on the shared step engine — runPReduceSim,
// blocking or pipelined, with the controller served by the same core as the
// live runtime's, driven here by the virtual clock — and returns the result
// together with the controller's statistics and the empirical E[W_k].
func (p *PReduce) RunDetailed(c *cluster.Cluster) (RunInfo, error) {
	if p.cfg.Overlap && (len(c.Cfg.Crashes) > 0 || len(c.Cfg.Partitions) > 0 || len(c.Cfg.Elastic) > 0 ||
		c.Cfg.InitialOr() < c.Cfg.N || c.Health != nil) {
		return RunInfo{}, fmt.Errorf("engine: overlapped P-Reduce models no crashes, partitions, elastic membership or watchdog")
	}
	// The cluster's virtual-clock tracer and instruments (nil when tracing is
	// off) put ready/group-formed/staleness decisions on the same timeline as
	// the worker spans.
	ctrl, err := NewController(p.controllerConfig(c), p.cfg.Policy, c.Tracer, c.Ins)
	if err != nil {
		return RunInfo{}, err
	}
	res, err := runPReduceSim(NewSimEnv(c), ctrl, p.cfg.Overlap, nil)
	if err != nil {
		return RunInfo{}, err
	}
	return RunInfo{Result: res, Stats: ctrl.Stats(), MeanW: ctrl.MeanW()}, nil
}
