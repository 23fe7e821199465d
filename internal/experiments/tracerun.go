package experiments

import (
	"partialreduce/internal/cluster"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
)

// TracedRun executes one representative P-Reduce simulation with the
// virtual-clock tracer enabled and returns both the run's result and the
// cluster (whose Tracer/Ins fields hold the recorded events and
// instruments). It backs `preduce-bench -trace`: a ResNet-34/CIFAR-10 cell
// on the production heterogeneity trace with the consistent strategy at
// P=4 — the paper's headline configuration — small enough to trace in
// seconds yet busy enough to exercise every span kind.
//
// traceCap sizes the event ring (negative selects trace.DefaultCapacity).
// The run is fully deterministic in opts.Seed: a same-seed replay records a
// byte-identical trace (see TestTracedRunDeterministic).
func TracedRun(opts Options, traceCap int) (*metrics.Result, *cluster.Cluster, error) {
	if traceCap == 0 {
		traceCap = -1
	}
	var run cellRun
	err := runAll(opts, []job{{
		cell: Cell{
			Workload: opts.workload(CIFAR10Workload(model.ResNet34)),
			N:        8,
			Env:      EnvProduction,
			Seed:     opts.Seed,
		},
		strategy: "CON P=4",
		tweak:    func(cfg *cluster.Config) { cfg.TraceCap = traceCap },
		store:    func(r cellRun) { run = r },
	}})
	return run.Result, run.Cluster, err
}
