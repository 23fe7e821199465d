package live

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"partialreduce/internal/data"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
)

// BenchmarkLiveStep is the repository benchmark's comm_mem workload as a Go
// benchmark, so the product's per-step CPU profile can be regenerated
// without bench/:
//
//	go test ./internal/live -run '^$' -bench LiveStep -cpuprofile cpu.out
//
// One op is a whole run: 8 ranks, P = 3, a 266,244-parameter MLP (2.1 MB),
// batch size 1, 50 iterations per rank over a fresh in-process world, on 2
// threads. The figure to read is steps/s — mini-batches computed per wall
// second across all ranks.
func BenchmarkLiveStep(b *testing.B) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	spec := model.Spec{Inputs: 60, Hidden: []int{4096}, Classes: 4}
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: spec.Classes, Dim: spec.Inputs, Examples: 2048 + 64, Separation: 4, Noise: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	train, test := ds.Split(2048.0 / (2048 + 64))
	var steps atomic.Int64
	cfg := Config{
		N: 8, P: 3,
		Spec: spec, Seed: 1,
		Train: train, Test: test,
		BatchSize: 1,
		Optimizer: optim.Config{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4},
		Iters:     50,
		// The engine calls this once per computed mini-batch.
		ComputeDelay: func(int, int) time.Duration { steps.Add(1); return 0 },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world := memWorld(cfg.N)
		if _, err := Run(cfg, world); err != nil {
			b.Fatal(err)
		}
		for _, t := range world {
			t.Close()
		}
	}
	b.ReportMetric(float64(steps.Load())/b.Elapsed().Seconds(), "steps/s")
}
