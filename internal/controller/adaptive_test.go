package controller

import (
	"math"
	"math/rand"
	"testing"
)

// replayScript is a seeded random controller workload: ready signals with
// advancing iterations and clocks, interleaved with failures that leave at
// least two workers alive. The same seed always produces the same op
// sequence.
type replayOp struct {
	kind   int // 0: ready, 1: fail
	worker int
	iter   int
	now    float64
}

func replayScript(seed int64, n, steps int) []replayOp {
	rng := rand.New(rand.NewSource(seed))
	iters := make([]int, n)
	dead := make([]bool, n)
	deadN := 0
	now := 0.0
	var ops []replayOp
	for len(ops) < steps {
		now += 0.05 + rng.Float64()
		if rng.Intn(20) == 0 && deadN < n-2 {
			w := rng.Intn(n)
			if !dead[w] {
				dead[w] = true
				deadN++
				ops = append(ops, replayOp{kind: 1, worker: w, now: now})
				continue
			}
		}
		w := rng.Intn(n)
		if dead[w] {
			continue
		}
		iters[w]++
		ops = append(ops, replayOp{kind: 0, worker: w, iter: iters[w], now: now})
	}
	return ops
}

// runScript replays ops against c, tolerating rejected signals (duplicate
// queue entries arise naturally from the random script), and returns
// every group formed.
func runScript(c *Controller, ops []replayOp) []Group {
	var out []Group
	for _, op := range ops {
		switch op.kind {
		case 0:
			if gs, err := c.Ready(Signal{Worker: op.worker, Iter: op.iter, Now: op.now}); err == nil {
				out = append(out, gs...)
			}
		case 1:
			out = append(out, c.Fail(op.worker)...)
		}
	}
	return out
}

func allActive(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

// feedCadence drives rounds of one signal per worker, worker w's r-th at
// time r·period(w).
func feedCadence(a *adaptive, n, rounds int, period func(w int) float64) {
	for r := 1; r <= rounds; r++ {
		for w := 0; w < n; w++ {
			a.onSignal(w, float64(r)*period(w))
		}
	}
}

func TestAdaptiveShrinksAndGrows(t *testing.T) {
	const n, p = 8, 4
	a := newAdaptive(n, p)
	active := allActive(n)
	size := func(formed int) int { return a.size(formed, n, active) }

	// Dispersed cadence: worker 7 runs 2x slower than the rest.
	feedCadence(a, n, 10, func(w int) float64 {
		if w == 7 {
			return 2.0
		}
		return 1.0
	})
	if got := size(adaptWindow); got != 3 {
		t.Fatalf("after dispersed cadence: P=%d, want one shrink step to 3", got)
	}
	if got := size(2*adaptWindow - 1); got != 3 {
		t.Fatalf("inside the window: P=%d, want the last decision 3", got)
	}
	if got := size(2 * adaptWindow); got != 2 {
		t.Fatalf("second window: P=%d, want 2", got)
	}
	if got := size(3 * adaptWindow); got != 2 {
		t.Fatalf("floor: P=%d, want 2", got)
	}

	// Regime switch to uniform cadence: the EMA converges and P grows back.
	for i := range a.gap {
		a.gap[i] = 1.0 // uniform: dispersion 1.0 <= adaptLo
	}
	if got := size(4 * adaptWindow); got != 3 {
		t.Fatalf("after re-convergence: P=%d, want grow to 3", got)
	}
	if got := size(5 * adaptWindow); got != 4 {
		t.Fatalf("ceiling approach: P=%d, want 4", got)
	}
	if got := size(6 * adaptWindow); got != 4 {
		t.Fatalf("ceiling: P=%d, want the configured 4", got)
	}
}

// TestAdaptiveTailGuard pins the adaptCap behavior: once the slowest
// worker's cadence blows past the cap (heavy-tail regime, e.g. a 5×
// production straggler), shrinking is counterproductive — FIFO formation
// already routes around the straggler — so P walks back toward the
// configured size instead of riding the floor.
func TestAdaptiveTailGuard(t *testing.T) {
	const n, p = 8, 4
	a := newAdaptive(n, p)
	active := allActive(n)
	size := func(formed int) int { return a.size(formed, n, active) }

	// Start from a shrunken state (mild skew already reacted to), then
	// switch worker 7 to an extreme 5× tail: P must recover, not shrink.
	a.cur = 2
	for i := range a.gap {
		a.gap[i] = 1.0
	}
	a.gap[7] = 5.0
	if got := size(adaptWindow); got != 3 {
		t.Fatalf("extreme tail: P=%d, want recovery step to 3", got)
	}
	if got := size(2 * adaptWindow); got != 4 {
		t.Fatalf("extreme tail second window: P=%d, want 4", got)
	}
	// At the configured size the guard holds rather than shrinking again.
	if got := size(3 * adaptWindow); got != 4 {
		t.Fatalf("extreme tail at configured P: P=%d, want hold at 4", got)
	}
}

func TestAdaptiveHoldsWithoutEvidence(t *testing.T) {
	a := newAdaptive(4, 3)
	active := allActive(4)
	// Clock-less caller: every signal at now=0 → no positive gaps → hold.
	for r := 0; r < 20; r++ {
		for w := 0; w < 4; w++ {
			a.onSignal(w, 0)
		}
		if got := a.size(r*adaptWindow, 4, active); got != 3 {
			t.Fatalf("clock-less round %d: P=%d, want configured 3", r, got)
		}
	}
}

// TestAdaptiveSizeBoundsProperty: across random signal streams and
// liveness, the chosen size never exceeds the configured P or the active
// worker count, and falls below adaptPMin only when that is all the
// active workers there are.
func TestAdaptiveSizeBoundsProperty(t *testing.T) {
	const n, p = 8, 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := newAdaptive(n, p)
		active := allActive(n)
		activeN := n
		now := 0.0
		formed := 0
		for step := 0; step < 300; step++ {
			now += rng.Float64() * 3
			a.onSignal(rng.Intn(n), now)
			if rng.Intn(10) == 0 && activeN > 2 {
				if k := rng.Intn(n); active[k] {
					active[k] = false
					activeN--
				}
			}
			got := a.size(formed, activeN, active)
			if got > p || got > activeN || (got < adaptPMin && got != activeN) {
				t.Fatalf("seed %d step %d: size %d with P=%d, %d active", seed, step, got, p, activeN)
			}
			if rng.Intn(2) == 0 {
				formed++
			}
		}
	}
}

// TestAdaptivePolicyRespectsFloors: even with adaptive sizing shrunk to its
// floor, every formed group has at least 2 members and never more than P —
// the controller-side clamp property.
func TestAdaptivePolicyRespectsFloors(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := Config{N: 8, P: 4, Weighting: Dynamic, AdaptiveP: true}
		c := mustNew(t, cfg)
		for _, g := range runScript(c, replayScript(seed, cfg.N, 600)) {
			if len(g.Members) < adaptPMin || len(g.Members) > cfg.P {
				t.Fatalf("seed %d: group size %d outside [%d,%d]", seed, len(g.Members), adaptPMin, cfg.P)
			}
		}
	}
}

// TestPolicyGroupWeightsSumToOne: groups whose sizes adaptive sizing
// varies still carry weights summing to 1 within 1e-12 (together with
// the initial-model mass when the conservative approximation is in use).
func TestPolicyGroupWeightsSumToOne(t *testing.T) {
	for _, approx := range []ApproxRule{InitialModel, ClosestIteration} {
		cfg := Config{N: 8, P: 4, Weighting: Dynamic, Approx: approx, AdaptiveP: true}
		c := mustNew(t, cfg)
		groups := runScript(c, replayScript(3, cfg.N, 500))
		sizes := map[int]bool{}
		for _, g := range groups {
			sizes[len(g.Members)] = true
			sum := g.InitWeight
			for _, w := range g.Weights {
				sum += w
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("approx %v: group weights sum to %v (|Δ|=%g)", approx, sum, math.Abs(sum-1))
			}
		}
		if len(sizes) < 2 {
			t.Fatalf("approx %v: every group had the same size %v: adaptive sizing never moved", approx, sizes)
		}
	}
}
