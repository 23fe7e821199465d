package engine_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/engine"
	"partialreduce/internal/hetero"
	"partialreduce/internal/model"
	"partialreduce/internal/netmodel"
	"partialreduce/internal/optim"
	"partialreduce/internal/transport"
)

// diffControl adapts a (mutex-serialized) controller.Controller to the
// engine.Control interface for in-memory differential runs: every worker
// goroutine signals through the shared state, and a formed group's directive
// is delivered to each member's waiting channel.
type diffShared struct {
	mu      sync.Mutex
	ctrl    *controller.Controller
	seq     uint32
	waiters map[int]chan engine.Directive
}

type diffControl struct {
	sh *diffShared
	id int
}

func (c *diffControl) Signal(iter int) (engine.Directive, error) {
	ch := make(chan engine.Directive, 1)
	c.sh.mu.Lock()
	c.sh.waiters[c.id] = ch
	groups, err := c.sh.ctrl.Ready(controller.Signal{Worker: c.id, Iter: iter})
	if err != nil {
		c.sh.mu.Unlock()
		return engine.Directive{}, err
	}
	for _, g := range groups {
		c.sh.seq++
		d := engine.Directive{Group: g, OpID: c.sh.seq}
		for _, m := range g.Members {
			c.sh.waiters[m] <- d
		}
	}
	c.sh.mu.Unlock()
	return <-ch, nil
}

func (c *diffControl) ReportDeath(dead int, g controller.Group, op uint32) error { return nil }
func (c *diffControl) ReportStuck(g controller.Group, op uint32) error           { return nil }
func (c *diffControl) Finished() error                                           { return nil }

// TestSimLiveDifferential runs the same tiny seeded workload through both
// substrates — the PReduce strategy on the virtual clock and
// RunPReduceWorker over in-memory transports — and asserts they compute the
// same training run: identical group-update counts, identical fast-forwarded
// iteration counters, and matching final weights.
//
// N = P = 2 keeps the group schedule timing-independent (every group is both
// workers, formed when the second signals, with weights ½/½), so the two
// substrates' different clocks cannot reorder the math; what remains is
// exactly what the engine layer claims to share — the step sequence and the
// aggregation rule. At batch size 1 the live worker takes the factored local
// step while the simulator materializes the gradient, so that row also pins
// the two forms of the step against each other across substrates.
func TestSimLiveDifferential(t *testing.T) {
	for _, batch := range []int{1, 16} {
		t.Run(fmt.Sprintf("B=%d", batch), func(t *testing.T) { simLiveDifferential(t, batch) })
	}
}

func simLiveDifferential(t *testing.T, batch int) {
	const (
		n     = 2
		iters = 12
		seed  = int64(7)
	)
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: 4, Dim: 12, Examples: 800, Separation: 3.2, Noise: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.8)
	spec := model.Spec{Inputs: 12, Hidden: []int{12}, Classes: 4}
	optCfg := optim.Config{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	profile := model.Profile{Name: "diff", WireParams: 1000, BatchCompute: 0.1, BytesPerParam: 4}

	// Simulated run: stop on the update cap — iters lockstep group averages.
	simCfg := cluster.Config{
		N: n, Spec: spec, Seed: seed, Train: train, Test: test,
		BatchSize: batch, Optimizer: optCfg, Profile: profile,
		Hetero:    hetero.NewHomogeneous(n, profile.BatchCompute, 0.05, seed),
		Net:       netmodel.Default(),
		Threshold: 0.999, EvalEvery: 100 * iters, MaxUpdates: iters,
	}
	c, err := cluster.New(simCfg, "diff")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.NewPReduce(engine.PReduceConfig{P: n}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != iters {
		t.Fatalf("sim recorded %d updates, want %d", res.Updates, iters)
	}

	// Live run: same initialization, and each live worker draws from the
	// sampler a fresh, un-run twin of the simulated cluster built for its
	// rank — the exact batch sequence its simulated twin drew.
	twin, err := cluster.New(simCfg, "diff-twin")
	if err != nil {
		t.Fatal(err)
	}
	base := spec.Build(seed)
	init := base.Params().Clone()
	world := transport.NewMem(n)
	liveCtrl, err := controller.New(controller.Config{N: n, P: n})
	if err != nil {
		t.Fatal(err)
	}
	sh := &diffShared{ctrl: liveCtrl, waiters: make(map[int]chan engine.Directive)}
	models := make([]model.Model, n)
	outs := make([]engine.Outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		m := base.Clone()
		models[id] = m
		wg.Add(1)
		go func(id int, m model.Model) {
			defer wg.Done()
			w := &engine.LiveWorker{
				Rank:      id,
				Trans:     world[id],
				Model:     m,
				Opt:       optim.NewSGD(optCfg, m.NumParams()),
				Sampler:   twin.Workers[id].Sampler,
				Init:      init,
				Iters:     iters,
				BatchSize: batch,
			}
			outs[id], errs[id] = engine.RunPReduceWorker(w, &diffControl{sh: sh, id: id})
		}(id, m)
	}
	wg.Wait()

	for id := 0; id < n; id++ {
		if errs[id] != nil {
			t.Fatalf("live worker %d: %v", id, errs[id])
		}
		if outs[id].Groups != res.Updates {
			t.Errorf("worker %d completed %d live groups, sim recorded %d updates",
				id, outs[id].Groups, res.Updates)
		}
		if simIter := c.Workers[id].Iter; outs[id].Iter != simIter {
			t.Errorf("worker %d live iter %d, sim iter %d", id, outs[id].Iter, simIter)
		}
	}

	// Both substrates must land on the same model, coordinate for coordinate.
	for id := 0; id < n; id++ {
		simP := c.Workers[id].Params()
		liveP := models[id].Params()
		if len(simP) != len(liveP) {
			t.Fatalf("worker %d: param length %d vs %d", id, len(simP), len(liveP))
		}
		var maxDiff, norm float64
		for i := range simP {
			if d := math.Abs(simP[i] - liveP[i]); d > maxDiff {
				maxDiff = d
			}
			norm += simP[i] * simP[i]
		}
		if norm == 0 {
			t.Fatalf("worker %d: simulated model never trained", id)
		}
		if maxDiff > 1e-9 {
			t.Errorf("worker %d: sim and live weights diverge, max |Δ| = %g", id, maxDiff)
		}
	}
}
