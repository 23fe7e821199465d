package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"partialreduce/internal/baselines"
	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
)

// Options tune an experiment run.
type Options struct {
	// Seed drives every dataset, initialization, and duration draw.
	Seed int64
	// Quick shrinks workloads for smoke tests and benchmarks.
	Quick bool
	// Parallelism bounds concurrent cells; zero selects GOMAXPROCS.
	Parallelism int
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) workload(w Workload) Workload {
	if o.Quick {
		return w.Quick()
	}
	return w
}

// StrategyFor builds the strategy named like Table 1's columns: "AR", "ER",
// "AD", "PS BSP", "PS ASP", "PS HETE", "PS BK-<b>", "CON P=<p>",
// "DYN P=<p>", and "ADP P=<p>".
func StrategyFor(name string) (cluster.Strategy, error) {
	var p, b int
	switch {
	case name == "AR":
		return baselines.NewAllReduce(), nil
	case name == "ER":
		return baselines.NewEagerReduce(), nil
	case name == "AD":
		return baselines.NewADPSGD(), nil
	case name == "D-PSGD":
		return baselines.NewDPSGD(), nil
	case name == "PS BSP":
		return baselines.NewPSBSP(), nil
	case name == "PS ASP":
		return baselines.NewPSASP(), nil
	case name == "PS HETE":
		return baselines.NewPSHETE(), nil
	case matchInt(name, "PS BK-%d", &b):
		return baselines.NewPSBK(b), nil
	case matchInt(name, "CON P=%d", &p):
		return engine.NewPReduce(engine.PReduceConfig{P: p}), nil
	case matchInt(name, "DYN P=%d", &p):
		return dynamic(p, false), nil
	case matchInt(name, "ADP P=%d", &p):
		// Adaptive group size: the configured P is the upper bound, groups
		// shrink toward 2 when the signal-cadence dispersion says the cell
		// is heterogeneous.
		return dynamic(p, true), nil
	}
	return nil, fmt.Errorf("experiments: unknown strategy %q", name)
}

// dynamic is dynamic-weight P-Reduce, its group size fixed or adaptive. It
// uses the closest-iteration approximation for missing EMA slots (§3.3.3's
// alternative): the literal initial-model rule shifts weight mass onto x₁
// when staleness is large, which measurably degrades convergence in our
// reproduction (see the ablation in experiments tests and DESIGN.md).
func dynamic(p int, adaptive bool) cluster.Strategy {
	return engine.NewPReduce(engine.PReduceConfig{
		P: p, Weighting: controller.Dynamic, Approx: controller.ClosestIteration, AdaptiveP: adaptive,
	})
}

func matchInt(s, format string, out *int) bool {
	n, err := fmt.Sscanf(s, format, out)
	return err == nil && n == 1
}

// job is one (cell, strategy) run.
type job struct {
	cell Cell
	// strategy names the run: it labels the result and, unless preduce is
	// set, selects the strategy (StrategyFor).
	strategy string
	// preduce, when set, runs P-Reduce with exactly this configuration.
	preduce *engine.PReduceConfig
	// tweak optionally adjusts the built cluster config: topology, fixed
	// heterogeneity, update budget, trace capacity.
	tweak func(*cluster.Config)
	// store receives the finished run.
	store func(cellRun)
}

// cellRun is what a finished job hands its store: the result, the
// controller-side observables (zero for strategies without a controller),
// and the cluster the run executed on (final replicas, tracer, instruments).
type cellRun struct {
	engine.RunInfo
	Cluster *cluster.Cluster
}

// runAll executes jobs with bounded parallelism; the first error aborts the
// batch (in-flight cells complete). Stores run one at a time.
func runAll(opts Options, jobs []job) error {
	sem := make(chan struct{}, opts.workers())
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error

	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			run, err := runCell(j)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s on %s (%s): %w",
						j.strategy, j.cell.Workload.Name, j.cell.envString(), err)
				}
				return
			}
			j.store(run)
		}()
	}
	wg.Wait()
	return firstErr
}

// runCell executes one simulation: the only place a cell becomes a cluster
// and a strategy runs on it.
func runCell(j job) (cellRun, error) {
	var s cluster.Strategy
	if j.preduce != nil {
		s = engine.NewPReduce(*j.preduce)
	} else {
		var err error
		if s, err = StrategyFor(j.strategy); err != nil {
			return cellRun{}, err
		}
	}
	cfg, err := j.cell.Build()
	if err != nil {
		return cellRun{}, err
	}
	if j.tweak != nil {
		j.tweak(&cfg)
	}
	c, err := cluster.New(cfg, j.strategy)
	if err != nil {
		return cellRun{}, err
	}
	run := cellRun{Cluster: c}
	if pr, ok := s.(*engine.PReduce); ok {
		run.RunInfo, err = pr.RunDetailed(c)
	} else {
		run.Result, err = s.Run(c)
	}
	return run, err
}
