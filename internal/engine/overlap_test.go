package engine_test

import (
	"testing"

	"partialreduce/internal/engine"
	"partialreduce/internal/hetero"
	"partialreduce/internal/model"
	"partialreduce/internal/testutil"
)

func TestOverlapName(t *testing.T) {
	if got := engine.NewPReduce(engine.PReduceConfig{P: 3, Overlap: true}).Name(); got != "CON+OV P=3" {
		t.Fatalf("name %q", got)
	}
}

func TestOverlapConverges(t *testing.T) {
	cfg := testutil.Config(t, 21)
	c := runPReduce(t, cfg, engine.PReduceConfig{P: 3, Overlap: true})
	res := c.Track.Result()
	if !res.Converged {
		t.Fatalf("overlapped P-Reduce did not converge: %+v", res)
	}
}

// Overlap must hide communication: on a communication-heavy profile the
// per-update time drops measurably versus the blocking variant.
func TestOverlapHidesCommunication(t *testing.T) {
	commHeavy := model.Profile{Name: "comm-heavy", WireParams: 140_000_000, BatchCompute: 0.15, BytesPerParam: 4}
	run := func(overlap bool) float64 {
		cfg := testutil.Config(t, 22)
		cfg.Profile = commHeavy
		cfg.Hetero = hetero.NewHomogeneous(cfg.N, commHeavy.BatchCompute, 0.15, 22)
		cfg.Threshold = 0.999 // run to the cap: compare pace, not convergence
		cfg.MaxUpdates = 600
		c := runPReduce(t, cfg, engine.PReduceConfig{P: 3, Overlap: overlap})
		return c.Track.Result().PerUpdate()
	}
	blocking := run(false)
	overlapped := run(true)
	if overlapped >= blocking*0.95 {
		t.Fatalf("overlap did not hide communication: %.4fs vs %.4fs", overlapped, blocking)
	}
}

// The overlapped pipeline must still propagate updates to every replica.
func TestOverlapReplicasHealthy(t *testing.T) {
	cfg := testutil.Config(t, 23)
	cfg.Hetero = hetero.NewGPUSharing(cfg.N, 3, testutil.Profile.BatchCompute, 0.15, 23)
	c := runPReduce(t, cfg, engine.PReduceConfig{P: 3, Overlap: true})
	if !c.Track.Result().Converged {
		t.Fatalf("did not converge: %+v", c.Track.Result())
	}
	for _, w := range c.Workers {
		if acc := c.EvalParams(w.Params()); acc < 0.75 {
			t.Fatalf("worker %d replica degraded to %.3f under overlap", w.ID, acc)
		}
	}
}

func TestOverlapDeterminism(t *testing.T) {
	run := func() (float64, int) {
		cfg := testutil.Config(t, 24)
		c := runPReduce(t, cfg, engine.PReduceConfig{P: 3, Overlap: true})
		r := c.Track.Result()
		return r.RunTime, r.Updates
	}
	t1, u1 := run()
	t2, u2 := run()
	if t1 != t2 || u1 != u2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, u1, t2, u2)
	}
}
