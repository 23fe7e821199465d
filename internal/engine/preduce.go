package engine

import (
	"fmt"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// PReduceConfig configures the strategy.
type PReduceConfig struct {
	P         int                  // group size
	Weighting controller.Weighting // Constant or Dynamic
	Approx    controller.ApproxRule
	// DisableGroupFilter turns group-frozen avoidance off (ablation only).
	DisableGroupFilter bool
	// ZoneAffinity makes the controller prefer same-zone groups when the
	// cluster has a geo-distributed topology (cheap intra-DC collectives);
	// group-frozen avoidance still bridges zones periodically.
	ZoneAffinity bool
	// AdaptiveP re-decides the group size between 2 and P from observed
	// worker cadence (controller.Config.AdaptiveP).
	AdaptiveP bool
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

// Name implements cluster.Strategy: "CON P=3", "DYN P=3", "ADP P=4"
// (adaptive group size)...
func (p *PReduce) Name() string {
	tag := "CON"
	switch {
	case p.cfg.AdaptiveP:
		tag = "ADP"
	case p.cfg.Weighting == controller.Dynamic:
		tag = "DYN"
	}
	return fmt.Sprintf("%s P=%d", tag, p.cfg.P)
}

func (p *PReduce) controllerConfig(c *cluster.Cluster) controller.Config {
	cfg := controller.Config{
		N:                  c.Cfg.N,
		Initial:            c.Cfg.Initial,
		P:                  p.cfg.P,
		Weighting:          p.cfg.Weighting,
		Approx:             p.cfg.Approx,
		DisableGroupFilter: p.cfg.DisableGroupFilter,
		AdaptiveP:          p.cfg.AdaptiveP,
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

// NewController builds a P-Reduce controller from cfg, wired to the tracer
// and instruments (either may be nil): the one constructor the simulator and
// the live runtime share.
func NewController(cfg controller.Config, tr *trace.Tracer, ins *metrics.Instruments) (*controller.Controller, error) {
	ctrl, err := controller.New(cfg)
	if err != nil {
		return nil, err
	}
	ctrl.SetTracer(tr)
	ctrl.SetInstruments(ins)
	return ctrl, nil
}

// Run implements cluster.Strategy.
func (p *PReduce) Run(c *cluster.Cluster) (*metrics.Result, error) {
	info, err := p.RunDetailed(c)
	return info.Result, err
}

// RunInfo carries a run's result plus the controller's activity counters.
// The group log itself (E[W_k]'s input) is the cluster's trace: the
// controller records one staleness event per member of each formed group.
type RunInfo struct {
	Result *metrics.Result
	// Stats are the controller's activity counters (groups formed,
	// frozen-avoidance interventions, membership changes).
	Stats controller.Stats
}

// RunDetailed runs training on the shared step engine — runPReduceSim, with
// the controller served by the same core as the live runtime's, driven here
// by the virtual clock — and returns the result together with the
// controller's statistics.
func (p *PReduce) RunDetailed(c *cluster.Cluster) (RunInfo, error) {
	// The cluster's virtual-clock tracer and instruments (nil when tracing is
	// off) put ready/group-formed/staleness decisions on the same timeline as
	// the worker spans.
	ctrl, err := NewController(p.controllerConfig(c), c.Tracer, c.Ins)
	if err != nil {
		return RunInfo{}, err
	}
	res, err := runPReduceSim(c, ctrl, nil)
	if err != nil {
		return RunInfo{}, err
	}
	return RunInfo{Result: res, Stats: ctrl.Stats()}, nil
}
