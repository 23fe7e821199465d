package experiments

import (
	"fmt"
	"io"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/spectral"
	"partialreduce/internal/tensor"
	"partialreduce/internal/trace"
)

// --- Figure 4: spectral gap under homogeneous vs heterogeneous timing ----

// Fig4Row is one scenario's analytic and empirical spectral bound.
type Fig4Row struct {
	Scenario     string
	AnalyticRho  float64
	EmpiricalRho float64
	RhoBar       float64
}

// Fig4Result holds both of the paper's N=3, P=2 scenarios.
type Fig4Result struct {
	Rows []Fig4Row
}

// Fig4 reproduces the paper's spectral-gap illustration: analytically,
// homogeneous timing gives ρ = 0.5 and a 2×-slower worker gives ρ = 0.625;
// empirically, a simulated constant P-Reduce run (N=3, P=2) under the same
// fixed worker speeds must produce a group history whose E[W_k] has a ρ
// approaching the analytic value. The group filter is disabled so the
// measured distribution is the natural one. E[W_k] is folded from each run's
// traced group log (groupLogMeanW).
func Fig4(opts Options) (*Fig4Result, error) {
	groups := [][]int{{0, 1}, {1, 2}, {0, 2}}
	scenarios := []struct {
		name  string
		probs []float64
		speed []float64
	}{
		{"homogeneous", []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, []float64{1, 1, 1}},
		{"one 2x slower", []float64{0.5, 0.25, 0.25}, []float64{1, 1, 2}},
	}
	w := opts.workload(CIFAR10Workload(model.ResNet34))
	out := &Fig4Result{Rows: make([]Fig4Row, len(scenarios))}
	tracers := make([]*trace.Tracer, len(scenarios))
	var jobs []job
	for i, sc := range scenarios {
		m, err := spectral.MeanW(spectral.GroupDist{N: 3, Groups: groups, Probs: sc.probs})
		if err != nil {
			return nil, err
		}
		analytic, err := spectral.Rho(m)
		if err != nil {
			return nil, err
		}
		out.Rows[i] = Fig4Row{Scenario: sc.name, AnalyticRho: analytic, RhoBar: spectral.RhoBar(analytic)}
		jobs = append(jobs, job{
			cell:     Cell{Workload: w, N: 3, Env: EnvHL, HL: 1, Seed: opts.Seed},
			strategy: "fig4",
			preduce:  &engine.PReduceConfig{P: 2, DisableGroupFilter: true},
			tweak: func(cfg *cluster.Config) {
				// Small jitter breaks ties so the group distribution matches
				// the paper's timing diagram rather than a deterministic
				// phase-locked cycle.
				cfg.Hetero = &jitteredFixed{
					fixed:  hetero.Fixed{Base: w.Profile.BatchCompute, Multipliers: sc.speed},
					jitter: hetero.NewHomogeneous(3, 1, 0.08, opts.Seed+3),
				}
				cfg.Threshold = 0.999 // run to the update budget; we want group counts
				cfg.MaxUpdates = 4000
				// A run records about 60k events, 92 % of the default ring:
				// sized here so the whole group log always fits.
				cfg.TraceCap = 1 << 17
			},
			store: func(r cellRun) { tracers[i] = r.Cluster.Tracer },
		})
	}
	if err := runAll(opts, jobs); err != nil {
		return nil, err
	}
	for i, tr := range tracers {
		m, err := groupLogMeanW(3, tr)
		if err != nil {
			return nil, err
		}
		rho, err := spectral.Rho(m)
		if err != nil {
			return nil, err
		}
		out.Rows[i].EmpiricalRho = rho
	}
	return out, nil
}

// jitteredFixed multiplies fixed per-worker speeds with small lognormal
// jitter.
type jitteredFixed struct {
	fixed  hetero.Fixed
	jitter *hetero.Homogeneous
}

func (j *jitteredFixed) ComputeTime(worker int, now float64) float64 {
	return j.fixed.ComputeTime(worker, now) * j.jitter.ComputeTime(worker, now)
}

func (j *jitteredFixed) Name() string { return "fixed+jitter" }

// groupLogMeanW folds a traced P-Reduce run's group log into the empirical
// E[W_k] over n workers. Each formed group, read off its members' staleness
// records (Track = member, B = group sequence), occurs with probability 1/K
// among the run's K groups; spectral.MeanW weighs it 1/|S| (Eq. 4), so
// groups of any size fold to a doubly stochastic matrix. A ring that dropped
// events has lost groups, so it is refused.
func groupLogMeanW(n int, tr *trace.Tracer) (*tensor.Matrix, error) {
	if d := tr.Dropped(); d > 0 {
		return nil, fmt.Errorf("experiments: trace ring dropped %d events, so its group log is incomplete", d)
	}
	var groups [][]int
	for _, ev := range tr.Events() {
		if ev.Kind != trace.KStaleness {
			continue
		}
		for int64(len(groups)) < ev.B {
			groups = append(groups, nil)
		}
		groups[ev.B-1] = append(groups[ev.B-1], int(ev.Track))
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("experiments: no group formed in the traced run")
	}
	probs := make([]float64, len(groups))
	for i := range probs {
		probs[i] = 1 / float64(len(groups))
	}
	return spectral.MeanW(spectral.GroupDist{N: n, Groups: groups, Probs: probs})
}

// Format renders the Fig. 4 comparison.
func (f *Fig4Result) Format(w io.Writer) {
	fmt.Fprintf(w, "%-16s %12s %12s %12s\n", "Scenario", "rho(analytic)", "rho(sim)", "rho-bar")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-16s %12.4f %12.4f %12.4f\n", r.Scenario, r.AnalyticRho, r.EmpiricalRho, r.RhoBar)
	}
}

// --- Figures 7 & 10: convergence curves ----------------------------------

// CurveSet holds accuracy-vs-time series per strategy.
type CurveSet struct {
	Title string
	Final map[string]*metrics.Result // per strategy; its Curve is the series
	Order []string
}

// Format renders each series as (time, accuracy) pairs, downsampled to at
// most 12 points, followed by the summary line.
func (cs *CurveSet) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", cs.Title)
	for _, name := range cs.Order {
		pts := downsample(cs.Final[name].Curve, 12)
		fmt.Fprintf(w, "%-10s", name)
		for _, p := range pts {
			fmt.Fprintf(w, " (%.0fs,%.3f)", p.Time, p.Accuracy)
		}
		fmt.Fprintln(w)
	}
	for _, name := range cs.Order {
		if r := cs.Final[name]; r != nil {
			fmt.Fprintf(w, "  %s\n", r)
		}
	}
}

// Exports offers the figure's curves, one series per strategy in legend order.
func (cs *CurveSet) Exports() []Export {
	rs := make([]*metrics.Result, len(cs.Order))
	for i, name := range cs.Order {
		rs[i] = cs.Final[name]
	}
	return []Export{{Curves: true, Results: rs}}
}

func downsample(pts []metrics.Point, max int) []metrics.Point {
	if len(pts) <= max {
		return pts
	}
	out := make([]metrics.Point, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, pts[i*(len(pts)-1)/(max-1)])
	}
	return out
}

func curves(opts Options, title string, cell Cell, strategies []string) (*CurveSet, error) {
	cs := &CurveSet{Title: title, Final: map[string]*metrics.Result{}, Order: strategies}
	var jobs []job
	for _, s := range strategies {
		jobs = append(jobs, job{cell: cell, strategy: s, store: func(r cellRun) { cs.Final[s] = r.Result }})
	}
	if err := runAll(opts, jobs); err != nil {
		return nil, err
	}
	return cs, nil
}

// Fig7a reproduces the CIFAR-10 convergence comparison (VGG-19, HL=3, N=8).
func Fig7a(opts Options) (*CurveSet, error) {
	w := opts.workload(CIFAR10Workload(model.VGG19))
	cell := Cell{Workload: w, N: 8, Env: EnvHL, HL: 3, Seed: opts.Seed}
	return curves(opts, "Fig 7(a): VGG-19 on CIFAR-10 (HL=3)", cell,
		[]string{"AR", "ER", "AD", "PS BSP", "CON P=3", "DYN P=3"})
}

// Fig7b reproduces the CIFAR-100 convergence comparison on the production
// environment (ResNet-34, N=16).
func Fig7b(opts Options) (*CurveSet, error) {
	w := opts.workload(CIFAR100Workload(model.ResNet34))
	cell := Cell{Workload: w, N: 16, Env: EnvProduction, Seed: opts.Seed}
	return curves(opts, "Fig 7(b): ResNet-34 on CIFAR-100 (production)", cell,
		[]string{"AR", "CON P=4", "DYN P=4"})
}

// Fig10 reproduces the ImageNet convergence curves (N=32, production):
// ResNet-18 and VGG-16, All-Reduce vs dynamic partial reduce.
func Fig10(opts Options) (Panels[*CurveSet], error) {
	var out Panels[*CurveSet]
	for _, prof := range []model.Profile{model.ResNet18, model.VGG16} {
		w := opts.workload(ImageNetWorkload(prof))
		cell := Cell{Workload: w, N: 32, Env: EnvProduction, Seed: opts.Seed}
		cs, err := curves(opts, fmt.Sprintf("Fig 10: %s on ImageNet (N=32)", prof.Name),
			cell, []string{"AR", "CON P=4", "DYN P=4"})
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}

// --- Figure 8: impact of group size P -------------------------------------

// Fig8Row is one P's metrics.
type Fig8Row struct {
	P         int
	PerUpdate float64
	Updates   int
	RunTime   float64
	Converged bool
}

// Fig8Result is the P sweep.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 reproduces the group-size study (§5.2.3): constant P-Reduce on
// VGG-19/CIFAR-10 at HL=1, P ∈ [2, 8]. Per-update time grows with P,
// #updates shrinks, and total time has interior minima.
func Fig8(opts Options) (*Fig8Result, error) {
	w := opts.workload(CIFAR10Workload(model.VGG19))
	out := &Fig8Result{Rows: make([]Fig8Row, 7)}
	var jobs []job
	for p := 2; p <= 8; p++ {
		jobs = append(jobs, job{
			cell:     Cell{Workload: w, N: 8, Env: EnvHL, HL: 1, Seed: opts.Seed},
			strategy: fmt.Sprintf("CON P=%d", p),
			store: func(run cellRun) {
				r := run.Result
				out.Rows[p-2] = Fig8Row{
					P: p, PerUpdate: r.PerUpdate(), Updates: r.Updates,
					RunTime: r.RunTime, Converged: r.Converged,
				}
			},
		})
	}
	if err := runAll(opts, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the three panels of Fig. 8 as columns.
func (f *Fig8Result) Format(w io.Writer) {
	fmt.Fprintf(w, "%4s %14s %10s %12s\n", "P", "per-update(s)", "#updates", "run time(s)")
	for _, r := range f.Rows {
		status := ""
		if !r.Converged {
			status = "  (N/A)"
		}
		fmt.Fprintf(w, "%4d %14.3f %10d %12.1f%s\n", r.P, r.PerUpdate, r.Updates, r.RunTime, status)
	}
}

// --- Figure 9: production-cluster comparison ------------------------------

// Fig9Result compares AR with partial reduce on the production environment.
type Fig9Result struct {
	AR, CON, DYN *metrics.Result
}

// Fig9 reproduces the production-cluster study (§5.3.1): ResNet-34 on
// CIFAR-100, 16 workers on the regime-switching trace. The paper reports
// P-Reduce ≈16.6× faster per update and ≈2× total.
func Fig9(opts Options) (*Fig9Result, error) {
	w := opts.workload(CIFAR100Workload(model.ResNet34))
	cell := Cell{Workload: w, N: 16, Env: EnvProduction, Seed: opts.Seed}
	out := &Fig9Result{}
	jobs := []job{
		{cell: cell, strategy: "AR", store: func(r cellRun) { out.AR = r.Result }},
		{cell: cell, strategy: "CON P=4", store: func(r cellRun) { out.CON = r.Result }},
		{cell: cell, strategy: "DYN P=4", store: func(r cellRun) { out.DYN = r.Result }},
	}
	if err := runAll(opts, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the three bars plus the headline ratios.
func (f *Fig9Result) Format(w io.Writer) {
	for _, r := range []*metrics.Result{f.AR, f.CON, f.DYN} {
		fmt.Fprintf(w, "  %s\n", r)
	}
	if f.AR != nil && f.DYN != nil && f.DYN.PerUpdate() > 0 {
		fmt.Fprintf(w, "per-update speedup (AR/DYN): %.1fx\n", f.AR.PerUpdate()/f.DYN.PerUpdate())
		if f.DYN.RunTime > 0 {
			fmt.Fprintf(w, "total speedup (AR/DYN): %.2fx\n", f.AR.RunTime/f.DYN.RunTime)
		}
	}
}

// --- Figure 11: scalability -----------------------------------------------

// Fig11Row is one worker count's speedups.
type Fig11Row struct {
	N        int
	Speedups map[string]float64 // strategy -> runtime(1)/runtime(N)
}

// Fig11Result is one model's scalability series.
type Fig11Result struct {
	Model string
	Rows  []Fig11Row
}

// Fig11Strategies are the scalability contenders: All-Reduce, backup
// workers with N/4 backups, and constant P-Reduce with P=4.
var Fig11Strategies = []string{"AR", "BK(N/4)", "CON P=4"}

// Fig11 reproduces the scalability study (§5.3.2): run-time speedup over a
// single worker at N ∈ {1,4,8,16,32} on the ImageNet substitute in the
// shared (production) environment, for ResNet-18 and VGG-16.
func Fig11(opts Options) (Panels[*Fig11Result], error) {
	ns := []int{1, 4, 8, 16, 32}
	var out Panels[*Fig11Result]
	for _, prof := range []model.Profile{model.ResNet18, model.VGG16} {
		w := opts.workload(ImageNetWorkload(prof))
		res := &Fig11Result{Model: prof.Name}
		results := map[int]map[string]*metrics.Result{}
		var jobs []job
		for _, n := range ns {
			results[n] = map[string]*metrics.Result{}
			for _, label := range Fig11Strategies {
				strat := fig11Strategy(label, n)
				jobs = append(jobs, job{
					cell:     Cell{Workload: w, N: n, Env: EnvProduction, Seed: opts.Seed},
					strategy: strat,
					store:    func(r cellRun) { results[n][label] = r.Result },
				})
			}
		}
		if err := runAll(opts, jobs); err != nil {
			return nil, err
		}
		base := results[1]["AR"]
		for _, n := range ns {
			row := Fig11Row{N: n, Speedups: map[string]float64{}}
			for _, label := range Fig11Strategies {
				if r := results[n][label]; r != nil && r.RunTime > 0 {
					row.Speedups[label] = base.RunTime / r.RunTime
				}
			}
			res.Rows = append(res.Rows, row)
		}
		out = append(out, res)
	}
	return out, nil
}

// fig11Strategy degenerates gracefully at small N: a single worker is plain
// sequential SGD for every method, and P-Reduce needs P ≤ N.
func fig11Strategy(label string, n int) string {
	if n == 1 {
		return "AR"
	}
	switch label {
	case "BK(N/4)":
		b := n / 4
		if b < 1 {
			b = 1
		}
		return fmt.Sprintf("PS BK-%d", b)
	case "CON P=4":
		if n < 4 {
			return fmt.Sprintf("CON P=%d", n)
		}
		return "CON P=4"
	default:
		return label
	}
}

// Format renders the speedup series.
func (f *Fig11Result) Format(w io.Writer) {
	fmt.Fprintf(w, "== Fig 11: %s on ImageNet (speedup vs 1 worker) ==\n", f.Model)
	fmt.Fprintf(w, "%4s", "N")
	for _, s := range Fig11Strategies {
		fmt.Fprintf(w, " %10s", s)
	}
	fmt.Fprintln(w)
	for _, row := range f.Rows {
		fmt.Fprintf(w, "%4d", row.N)
		for _, s := range Fig11Strategies {
			fmt.Fprintf(w, " %10.2f", row.Speedups[s])
		}
		fmt.Fprintln(w)
	}
}

// --- Ablations -------------------------------------------------------------

// AblationWeightsResult compares aggregation rules on the same cell.
type AblationWeightsResult struct {
	Constant, DynamicClosest, DynamicInitial *metrics.Result
}

// AblationWeights compares constant weights against both dynamic-weight
// approximation rules on the heterogeneous CIFAR-10 cell (ResNet-34, HL=3).
func AblationWeights(opts Options) (*AblationWeightsResult, error) {
	w := opts.workload(CIFAR10Workload(model.ResNet34))
	cell := Cell{Workload: w, N: 8, Env: EnvProduction, Seed: opts.Seed}
	out := &AblationWeightsResult{}
	jobs := []job{
		{cell: cell, strategy: "CON", preduce: &engine.PReduceConfig{P: 3},
			store: func(r cellRun) { out.Constant = r.Result }},
		{cell: cell, strategy: "DYN/closest", preduce: &engine.PReduceConfig{
			P: 3, Weighting: controller.Dynamic, Approx: controller.ClosestIteration,
		}, store: func(r cellRun) { out.DynamicClosest = r.Result }},
		{cell: cell, strategy: "DYN/initial", preduce: &engine.PReduceConfig{
			P: 3, Weighting: controller.Dynamic, Approx: controller.InitialModel,
		}, store: func(r cellRun) { out.DynamicInitial = r.Result }},
	}
	if err := runAll(opts, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the three rules side by side.
func (a *AblationWeightsResult) Format(w io.Writer) {
	fmt.Fprintln(w, "Ablation: aggregation weighting (ResNet-34/CIFAR-10, production)")
	fmt.Fprintf(w, "  constant:     %s\n", a.Constant)
	fmt.Fprintf(w, "  dyn/closest:  %s\n", a.DynamicClosest)
	fmt.Fprintf(w, "  dyn/initial:  %s\n", a.DynamicInitial)
}

// AblationGroupFilterResult measures group-frozen avoidance.
type AblationGroupFilterResult struct {
	// WorstAccuracy is the worst single-replica accuracy at the end of the
	// run, with and without the filter.
	WithFilter, WithoutFilter float64
	// Interventions counts filter rewrites in the enabled run.
	Interventions int
	// BridgingGroups counts groups spanning the two speed classes.
	BridgingWith, BridgingWithout int
}

// AblationGroupFilter constructs the pathological case of §4: two fast and
// two slow workers with P=2 and no jitter, so FIFO grouping always pairs
// fast with fast and slow with slow — two frozen sub-clusters training on
// half the data each. The filter must bridge them; without it the worst
// replica stays measurably worse.
func AblationGroupFilter(opts Options) (*AblationGroupFilterResult, error) {
	w := opts.workload(CIFAR10Workload(model.ResNet34))

	type arm struct {
		worst                   float64
		interventions, bridging int
		tr                      *trace.Tracer
	}
	measure := func(disable bool, a *arm) job {
		return job{
			cell:     Cell{Workload: w, N: 4, Env: EnvHL, HL: 1, Seed: opts.Seed},
			strategy: "ablation-filter",
			preduce:  &engine.PReduceConfig{P: 2, DisableGroupFilter: disable},
			tweak: func(cfg *cluster.Config) {
				cfg.Hetero = &hetero.Fixed{
					Base:        w.Profile.BatchCompute,
					Multipliers: []float64{1, 1, 2.5, 2.5},
				}
				cfg.Threshold = 0.999
				cfg.MaxUpdates = 2000
				cfg.TraceCap = 1 << 16 // a run records about 31k events
			},
			store: func(r cellRun) {
				a.worst = 1.0
				for _, wk := range r.Cluster.Workers {
					if acc := r.Cluster.EvalParams(wk.Params()); acc < a.worst {
						a.worst = acc
					}
				}
				a.interventions = r.Stats.Interventions
				a.tr = r.Cluster.Tracer
			},
		}
	}
	var with, without arm
	if err := runAll(opts, []job{measure(false, &with), measure(true, &without)}); err != nil {
		return nil, err
	}
	for _, a := range []*arm{&with, &without} {
		m, err := groupLogMeanW(4, a.tr)
		if err != nil {
			return nil, err
		}
		// Bridging groups join {0,1} with {2,3}: read them off E[W].
		for i := 0; i < 2; i++ {
			for j := 2; j < 4; j++ {
				if m.At(i, j) > 0 {
					a.bridging++
				}
			}
		}
	}
	return &AblationGroupFilterResult{
		WithFilter: with.worst, Interventions: with.interventions, BridgingWith: with.bridging,
		WithoutFilter: without.worst, BridgingWithout: without.bridging,
	}, nil
}

// Format renders the filter ablation.
func (a *AblationGroupFilterResult) Format(w io.Writer) {
	fmt.Fprintln(w, "Ablation: group-frozen avoidance (adversarial 2+2 cluster, P=2)")
	fmt.Fprintf(w, "  with filter:    worst replica accuracy %.3f (interventions=%d, bridging pairs=%d)\n",
		a.WithFilter, a.Interventions, a.BridgingWith)
	fmt.Fprintf(w, "  without filter: worst replica accuracy %.3f (bridging pairs=%d)\n",
		a.WithoutFilter, a.BridgingWithout)
}

// Ablations runs the two design ablations DESIGN.md calls out: aggregation
// weighting and group-frozen avoidance.
func Ablations(opts Options) (Panels[Report], error) {
	w, err := AblationWeights(opts)
	if err != nil {
		return nil, err
	}
	f, err := AblationGroupFilter(opts)
	if err != nil {
		return nil, err
	}
	return Panels[Report]{w, f}, nil
}
