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
//
// Config.Crash is honored the hard way: the crashed worker simply stops
// participating, and because every iteration requires all N workers, the
// survivors' collectives fail and the whole run errors out. That asymmetry —
// P-Reduce's Run recovers from the same crash schedule, RunAllReduce cannot —
// is the fault-tolerance claim of §4 made executable.
func RunAllReduce(cfg Config, world []transport.Transport) (*Report, error) {
	if cfg.N < 2 || cfg.Train == nil || cfg.Test == nil || cfg.BatchSize < 1 || cfg.Iters < 1 {
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
	rt := newRuntime(cfg, world)
	group := make([]int, cfg.N)
	for i := range group {
		group[i] = i
	}

	start := time.Now()
	for id := 0; id < cfg.N; id++ {
		id := id
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			w := rt.newWorker(id)
			defer rt.addComms(w.Env.Copts.Stats)
			if _, err := engine.RunAllReduceWorker(w, world, group); err != nil {
				rt.runErr <- fmt.Errorf("live: worker %d all-reduce: %w", id, err)
				for _, t := range world {
					t.Close()
				}
			}
		}()
	}
	rt.wg.Wait()
	select {
	case err := <-rt.runErr:
		return nil, err
	default:
	}

	// All replicas are identical; evaluate worker 0's.
	return &Report{
		FinalAccuracy: model.Accuracy(rt.models[0], cfg.Test),
		Groups:        cfg.Iters,
		WallTime:      time.Since(start),
		WorkerIters:   rt.iters,
		Comms:         rt.comms,
	}, nil
}
