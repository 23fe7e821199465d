package live

import (
	"fmt"
	"time"

	"partialreduce/internal/engine"
	"partialreduce/internal/model"
	"partialreduce/internal/transport"
)

// RunAllReduce is the live All-Reduce baseline: every iteration all N
// workers compute a gradient and average it with one full-world ring
// all-reduce — the synchronous barrier P-Reduce removes. Each goroutine runs
// engine.RunAllReduceWorker, the same step loop the simulated AR baseline
// drives on virtual time. Comparing its wall time against Run on the same
// world (with the same injected ComputeDelay stragglers) demonstrates the
// heterogeneity tolerance live, not just in simulation. Config.P is ignored.
func RunAllReduce(cfg Config, world []transport.Transport) (*Report, error) {
	if cfg.N < 2 || cfg.Spec == nil || cfg.Train == nil || cfg.Test == nil || cfg.BatchSize < 1 || cfg.Iters < 1 {
		return nil, fmt.Errorf("live: invalid all-reduce config")
	}
	if err := cfg.Optimizer.Validate(); err != nil {
		return nil, err
	}
	if len(world) != cfg.N {
		return nil, fmt.Errorf("live: %d transports for %d workers", len(world), cfg.N)
	}

	// The baseline runs bare — no tracing, no deadlines — on the same worker
	// assembly as P-Reduce.
	cfg.Tracer, cfg.Instruments, cfg.CollectiveTimeout = nil, nil, 0
	base := cfg.Spec.Build(cfg.Seed)
	init := base.Params().Clone()
	shards := cfg.Train.Shard(cfg.N)
	group := make([]int, cfg.N)
	for i := range group {
		group[i] = i
	}

	start := time.Now()
	workers := make([]*engine.LiveWorker, cfg.N)
	iters := make([]int, cfg.N)
	err := eachRank(world, func(id int) error {
		w := newLiveWorker(cfg, id, world[id], base, shards[id], init)
		workers[id] = w
		out, err := engine.RunAllReduceWorker(w, group)
		iters[id] = out.Iter
		return err
	})
	if err != nil {
		return nil, err
	}

	// All replicas are identical; evaluate worker 0's.
	rep := &Report{
		FinalAccuracy: model.Accuracy(workers[0].Model, cfg.Test),
		Groups:        cfg.Iters,
		WallTime:      time.Since(start),
		WorkerIters:   iters,
	}
	for _, w := range workers {
		rep.Comms.Merge(*w.Copts.Stats)
	}
	return rep, nil
}
