package live

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partialreduce/internal/data"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
	"partialreduce/internal/transport"
)

// BenchmarkLiveStep is the repository benchmark's comm_mem and comm_tcp
// workloads as a Go benchmark, so the product's per-step CPU profile can be
// regenerated, and the ring's segment size swept, without bench/:
//
//	go test ./internal/live -run '^$' -bench 'LiveStep/tcp/seg=transport' -cpuprofile cpu.out
//
// One op is a whole run: 8 ranks, a 266,244-parameter MLP (2.1 MB), batch
// size 1, on 2 threads, over a fresh world built outside the timer — 50
// iterations per rank in process (mem), 30 over a loopback TCP mesh (tcp).
// mem and tcp run P-Reduce at P = 3; mem-p4 and mem-p5 at P = 4 and 5, and
// mem-ar the All-Reduce baseline (RunAllReduce), all in process; tcp-ar is
// comm_tcp's All-Reduce, the same model over the loopback mesh. ctrl-ar is
// ctrl_tcp's All-Reduce: its 108-parameter model, 300 iterations per rank
// over a loopback TCP mesh, each step one small-input exchange. ctrl is
// ctrl_tcp's P-Reduce at P = 3: the same model, 800 iterations, one
// RunWorker per rank with rank 0 hosting the controller, so every ready
// signal and reply crosses the mesh beside the groups' exchanges. The figure
// to read is steps/s — mini-batches computed per wall second across all
// ranks. seg=transport runs the world as built, so the ring uses the
// transport's SegmentElems(g) (4 Ki on mem below 5 members, 32 Ki on mem at
// 5 or more and on tcp): what every shipped run uses. The 4Ki…64Ki cells wrap
// each endpoint in testutil.Segmented, which sets the segment and the frame,
// for the segment-geometry sweep.
func BenchmarkLiveStep(b *testing.B) {
	wide := model.Spec{Inputs: 60, Hidden: []int{4096}, Classes: 4}
	small := model.Spec{Inputs: 8, Hidden: []int{8}, Classes: 4}
	mem := func(n int) ([]transport.Transport, error) { return memWorld(n), nil }
	for _, w := range []struct {
		name  string
		spec  model.Spec
		p     int // 0: the All-Reduce baseline (run is RunAllReduce)
		iters int
		segKi []int
		world func(n int) ([]transport.Transport, error)
		run   func(Config, []transport.Transport) (*Report, error)
	}{
		{"mem", wide, 3, 50, []int{0, 4, 16, 32, 64}, mem, Run},
		{"tcp", wide, 3, 30, []int{0, 4, 16, 32, 64}, tcpLoopbackWorld, Run},
		{"mem-p4", wide, 4, 50, []int{0, 4, 32}, mem, Run},
		{"mem-p5", wide, 5, 50, []int{0, 4, 32}, mem, Run},
		{"mem-ar", wide, 0, 50, []int{0, 4, 32}, mem, RunAllReduce},
		{"tcp-ar", wide, 0, 30, []int{0}, tcpLoopbackWorld, RunAllReduce},
		{"ctrl-ar", small, 0, 300, []int{0}, tcpLoopbackWorld, RunAllReduce},
		{"ctrl", small, 3, 800, []int{0}, tcpLoopbackWorld, runWorkers},
	} {
		ds, err := data.GaussianMixture(data.MixtureConfig{
			Classes: w.spec.Classes, Dim: w.spec.Inputs, Examples: 2048 + 64, Separation: 4, Noise: 1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		train, test := ds.Split(2048.0 / (2048 + 64))
		cfg := Config{
			N: 8, P: 3,
			Spec: w.spec, Seed: 1,
			Train: train, Test: test,
			BatchSize: 1,
			Optimizer: optim.Config{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4},
		}
		for _, segKi := range w.segKi {
			seg := "transport"
			if segKi > 0 {
				seg = fmt.Sprintf("%dKi", segKi)
			}
			b.Run(fmt.Sprintf("%s/seg=%s", w.name, seg), func(b *testing.B) {
				defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
				var steps atomic.Int64
				cfg := cfg
				cfg.P = w.p
				cfg.Iters = w.iters
				// The engine calls this once per computed mini-batch.
				cfg.ComputeDelay = func(int, int) time.Duration { steps.Add(1); return 0 }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					world, err := w.world(cfg.N)
					if err != nil {
						b.Fatal(err)
					}
					world = segmented(world, segKi<<10)
					b.StartTimer()
					_, err = w.run(cfg, world)
					b.StopTimer()
					for _, t := range world {
						t.Close()
					}
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(steps.Load())/b.Elapsed().Seconds(), "steps/s")
			})
		}
	}
}

// runWorkers is the multi-process deployment inside one process: one
// RunWorker per rank, rank 0 hosting the controller.
func runWorkers(cfg Config, world []transport.Transport) (*Report, error) {
	errs := make([]error, len(world))
	var wg sync.WaitGroup
	for r := range world {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[r] = RunWorker(cfg, world[r], r == 0)
		}()
	}
	wg.Wait()
	return nil, errors.Join(errs...)
}

// tcpLoopbackWorld builds an n-rank TCP mesh on loopback ports the kernel
// reported free. Another socket can take a port between its release and the
// endpoint's bind, so a failed mesh is rebuilt on fresh ports a few times.
func tcpLoopbackWorld(n int) ([]transport.Transport, error) {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var world []transport.Transport
		if world, err = tcpLoopbackWorldOnce(n); err == nil {
			return world, nil
		}
	}
	return nil, fmt.Errorf("tcp mesh: %w", err)
}

func tcpLoopbackWorldOnce(n int) ([]transport.Transport, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := listenFree()
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}

	world := make([]transport.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range world {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, err := transport.NewTCPOpts(r, addrs, transport.TCPOptions{MeshTimeout: 3 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			world[r] = t
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, t := range world {
				if t != nil {
					t.Close()
				}
			}
			return nil, err
		}
	}
	return world, nil
}
