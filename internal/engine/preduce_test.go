package engine_test

import (
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
	"partialreduce/internal/hetero"
	"partialreduce/internal/testutil"
)

func runPReduce(t *testing.T, cfg cluster.Config, pcfg engine.PReduceConfig) *cluster.Cluster {
	t.Helper()
	return testutil.Run(t, cfg, engine.NewPReduce(pcfg))
}

func TestNames(t *testing.T) {
	if got := engine.NewPReduce(engine.PReduceConfig{P: 3}).Name(); got != "CON P=3" {
		t.Fatalf("name %q", got)
	}
	if got := engine.NewPReduce(engine.PReduceConfig{P: 5, Weighting: controller.Dynamic}).Name(); got != "DYN P=5" {
		t.Fatalf("name %q", got)
	}
}

func TestConstantPReduceConverges(t *testing.T) {
	cfg := testutil.Config(t, 1)
	c := runPReduce(t, cfg, engine.PReduceConfig{P: 3})
	res := c.Track.Result()
	if !res.Converged {
		t.Fatalf("constant P-Reduce did not converge: %+v", res)
	}
	if res.Updates == 0 || res.RunTime <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
}

func TestDynamicPReduceConverges(t *testing.T) {
	cfg := testutil.Config(t, 2)
	cfg.Hetero = hetero.NewGPUSharing(cfg.N, 3, testutil.Profile.BatchCompute, 0.05, 2)
	c := runPReduce(t, cfg, engine.PReduceConfig{P: 3, Weighting: controller.Dynamic})
	if !c.Track.Result().Converged {
		t.Fatalf("dynamic P-Reduce did not converge: %+v", c.Track.Result())
	}
}

func TestInvalidPRejected(t *testing.T) {
	cfg := testutil.Config(t, 3)
	c, err := cluster.New(cfg, "bad")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewPReduce(engine.PReduceConfig{P: 1}).Run(c); err == nil {
		t.Fatal("P=1 accepted")
	}
	if _, err := engine.NewPReduce(engine.PReduceConfig{P: 99}).Run(c); err == nil {
		t.Fatal("P>N accepted")
	}
}

// Hardware efficiency: P-Reduce's per-update time must grow with P (larger
// groups barrier more workers and move more data), reproducing Fig. 8's
// left panel.
func TestPerUpdateGrowsWithP(t *testing.T) {
	var prev float64
	for _, p := range []int{2, 4, 8} {
		cfg := testutil.Config(t, 4)
		cfg.Threshold = 0.999 // run to the update cap for stable timing
		cfg.MaxUpdates = 800
		c := runPReduce(t, cfg, engine.PReduceConfig{P: p})
		pu := c.Track.Result().PerUpdate()
		if pu <= prev {
			t.Fatalf("per-update did not grow: P=%d gives %v (prev %v)", p, pu, prev)
		}
		prev = pu
	}
}

// Heterogeneity tolerance: under GPU sharing, P-Reduce's total run time must
// beat All-Reduce-style full barriers. This is checked against the AR
// baseline in the baselines package; here we check P-Reduce degrades
// gracefully: HL=3 run time is within a small factor of HL=1, not the ~3x
// a full barrier would suffer.
func TestHeterogeneityTolerance(t *testing.T) {
	runtimeAt := func(hl int) float64 {
		cfg := testutil.Config(t, 5)
		cfg.Hetero = hetero.NewGPUSharing(cfg.N, hl, testutil.Profile.BatchCompute, 0.05, 5)
		c := runPReduce(t, cfg, engine.PReduceConfig{P: 3})
		res := c.Track.Result()
		if !res.Converged {
			t.Fatalf("HL=%d did not converge", hl)
		}
		return res.RunTime
	}
	homo := runtimeAt(1)
	het := runtimeAt(3)
	if het > 2.2*homo {
		t.Fatalf("P-Reduce degraded %vx under HL=3 (homo %v, het %v)", het/homo, homo, het)
	}
}

func TestRunDetailedReportsGroups(t *testing.T) {
	cfg := testutil.Config(t, 6)
	c, err := cluster.New(cfg, "CON P=4")
	if err != nil {
		t.Fatal(err)
	}
	info, err := engine.NewPReduce(engine.PReduceConfig{P: 4}).RunDetailed(c)
	if err != nil {
		t.Fatal(err)
	}
	res, stats := info.Result, info.Stats
	if stats.GroupsFormed != res.Updates {
		t.Fatalf("groups formed %d != updates %d", stats.GroupsFormed, res.Updates)
	}
}

// Determinism: identical seeds give identical trajectories.
func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, int) {
		cfg := testutil.Config(t, 7)
		c := runPReduce(t, cfg, engine.PReduceConfig{P: 3})
		r := c.Track.Result()
		return r.RunTime, r.Updates
	}
	t1, u1 := run()
	t2, u2 := run()
	if t1 != t2 || u1 != u2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, u1, t2, u2)
	}
}

// All replicas agree after convergence within the drift a few outstanding
// groups can explain: the partial reduces propagate every worker's updates.
func TestModelsCollaborativelyConverge(t *testing.T) {
	cfg := testutil.Config(t, 8)
	c := runPReduce(t, cfg, engine.PReduceConfig{P: 2})
	// Every worker individually classifies well — no isolated stale replica.
	for _, w := range c.Workers {
		if acc := c.EvalParams(w.Params()); acc < 0.8 {
			t.Fatalf("worker %d stuck at accuracy %.3f", w.ID, acc)
		}
	}
}
