package controller

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"partialreduce/internal/policy"
	"partialreduce/internal/trace"
)

// replayScript is a seeded random controller workload: ready signals with
// advancing iterations and clocks, interleaved failures and rejoins. The
// same seed always produces the same op sequence, so two controllers fed
// the same script are comparable event for event.
type replayOp struct {
	kind   int // 0: ready, 1: fail, 2: rejoin
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
		switch r := rng.Intn(20); {
		case r == 0 && deadN < n-2:
			w := rng.Intn(n)
			if !dead[w] {
				dead[w] = true
				deadN++
				ops = append(ops, replayOp{kind: 1, worker: w, now: now})
				continue
			}
		case r == 1 && deadN > 0:
			w := rng.Intn(n)
			if dead[w] {
				dead[w] = false
				deadN--
				ops = append(ops, replayOp{kind: 2, worker: w, now: now})
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
		case 2:
			_ = c.Rejoin(op.worker)
		}
	}
	return out
}

// TestStaticPolicyBitIdentical is the metamorphic golden test: a
// controller with the static policy attached must produce exactly the
// groups AND exactly the trace events of a controller with no policy at
// all, across seeded replay scripts with failures and rejoins. This pins
// the whole policy code path — consultPolicy, deviation detection, bias
// plumbing — as a no-op for the static policy.
func TestStaticPolicyBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := Config{N: 6, P: 3, Weighting: Dynamic}
		ops := replayScript(seed, cfg.N, 400)

		clock := 0.0
		newTraced := func() (*Controller, *trace.Tracer) {
			c := mustNew(t, cfg)
			tr := trace.New(trace.FuncClock(func() float64 { return clock }), 1<<14)
			c.SetTracer(tr)
			return c, tr
		}

		base, baseTr := newTraced()
		baseGroups := runScript(base, ops)

		pol, err := policy.New(policy.Spec{Name: policy.NameStatic}, cfg.N, cfg.P)
		if err != nil {
			t.Fatal(err)
		}
		withPol, polTr := newTraced()
		withPol.SetPolicy(pol)
		polGroups := runScript(withPol, ops)

		if !reflect.DeepEqual(baseGroups, polGroups) {
			t.Fatalf("seed %d: groups diverged:\n  nil policy: %d groups\n  static:     %d groups",
				seed, len(baseGroups), len(polGroups))
		}
		if !reflect.DeepEqual(baseTr.Events(), polTr.Events()) {
			t.Fatalf("seed %d: trace events diverged (%d vs %d events)",
				seed, baseTr.Len(), polTr.Len())
		}
		if base.Stats() != withPol.Stats() {
			t.Fatalf("seed %d: stats diverged: %+v vs %+v", seed, base.Stats(), withPol.Stats())
		}
	}
}

// TestAdaptivePolicyRespectsFloors: even with an adaptive policy shrunk to
// its floor, every formed group has at least PMin members and never more
// than the alive worker count — the controller-side clamp property.
func TestAdaptivePolicyRespectsFloors(t *testing.T) {
	const pmin, pmax = 2, 4
	for seed := int64(1); seed <= 5; seed++ {
		cfg := Config{N: 8, P: 4, Weighting: Dynamic, Window: MinWindow(8, pmin)}
		c := mustNew(t, cfg)
		pol, err := policy.New(policy.Spec{Name: policy.NameAdaptiveP, PMin: pmin, PMax: pmax, Window: 2}, cfg.N, cfg.P)
		if err != nil {
			t.Fatal(err)
		}
		c.SetPolicy(pol)
		for _, g := range runScript(c, replayScript(seed, cfg.N, 600)) {
			if len(g.Members) < pmin || len(g.Members) > pmax {
				t.Fatalf("seed %d: group size %d outside [%d,%d]", seed, len(g.Members), pmin, pmax)
			}
		}
	}
}

// TestPolicyGroupWeightsSumToOne: groups formed under policy alpha
// overrides still carry weights summing to 1 within 1e-12 (together with
// the initial-model mass when the conservative approximation is in use).
func TestPolicyGroupWeightsSumToOne(t *testing.T) {
	for _, approx := range []ApproxRule{InitialModel, ClosestIteration} {
		cfg := Config{N: 8, P: 4, Weighting: Dynamic, Approx: approx}
		c := mustNew(t, cfg)
		// alphaOverride deviates from the default decay on every group.
		c.SetPolicy(alphaOverridePolicy{alpha: 0.3})
		groups := runScript(c, replayScript(3, cfg.N, 500))
		if len(groups) == 0 {
			t.Fatal("script formed no groups")
		}
		for _, g := range groups {
			sum := g.InitWeight
			for _, w := range g.Weights {
				sum += w
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("approx %v: group weights sum to %v (|Δ|=%g)", approx, sum, math.Abs(sum-1))
			}
		}
	}
}

// alphaOverridePolicy is a test double: static sizing, fixed alpha
// override.
type alphaOverridePolicy struct{ alpha float64 }

func (alphaOverridePolicy) Name() string                 { return "test-alpha" }
func (alphaOverridePolicy) OnSignal(_, _ int, _ float64) {}
func (p alphaOverridePolicy) Decide(in policy.Inputs) policy.Decision {
	n := in.ConfigP
	if in.Alive < n {
		n = in.Alive
	}
	return policy.Decision{P: n, Alpha: p.alpha}
}

// stalenessProbe is a test double: static sizing, recording the staleness
// the controller reported for each queued worker at the latest Decide.
type stalenessProbe struct {
	alphaOverridePolicy
	seen map[int]int
}

func (p *stalenessProbe) Decide(in policy.Inputs) policy.Decision {
	p.seen = map[int]int{}
	for _, q := range in.Queue {
		p.seen[q.Worker] = q.Staleness
	}
	return p.alphaOverridePolicy.Decide(in)
}

// TestIntrospectionDeadSentinels: the introspection data a policy decides
// from must not be measured against a condemned worker's frozen iteration.
// When the frontrunner dies the cluster maximum recedes to the best
// survivor, and a rejoin restores it.
func TestIntrospectionDeadSentinels(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 3})
	probe := &stalenessProbe{}
	c.SetPolicy(probe)
	ready(t, c, 0, 10) // frontrunner pulls the maximum to 10, then queues
	ready(t, c, 1, 2)
	if got := probe.seen[1]; got != 10-2 {
		t.Fatalf("pre-condemnation staleness of 1 = %d, want 8", got)
	}

	// Condemn the frontrunner: the survivor is now the most advanced.
	if gs := c.Fail(0); len(gs) != 0 {
		t.Fatalf("unexpected groups %v", gs)
	}
	if _, queued := probe.seen[0]; queued {
		t.Fatal("condemned worker still in the policy's queue view")
	}
	if got := probe.seen[1]; got != 0 {
		t.Fatalf("survivor staleness = %d, want 0 against the surviving max", got)
	}

	// Rejoin restores the frontrunner's reading.
	if err := c.Rejoin(0); err != nil {
		t.Fatal(err)
	}
	ready(t, c, 2, 3) // the next formation attempt consults the policy
	if got := probe.seen[1]; got != 8 {
		t.Fatalf("staleness after rejoin = %d, want 8 (0 is the frontrunner again)", got)
	}
}

// TestStragglerBiasReordersQueue: with the straggler-bias policy, a
// freshly-signaled high-staleness worker jumps ahead of earlier fresh
// signals into the next group, and the non-FIFO pop is recorded as a
// KPolicyDecision deviation.
func TestStragglerBiasReordersQueue(t *testing.T) {
	c := mustNew(t, Config{N: 6, P: 3, DisableGroupFilter: true})
	tr := trace.New(trace.FuncClock(func() float64 { return 0 }), 1<<10)
	c.SetTracer(tr)
	pol, err := policy.New(policy.Spec{Name: policy.NameStragglerBias}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPolicy(pol)
	ready(t, c, 0, 9)       // maxIter 9, queue [0]
	ready(t, c, 1, 9)       // queue [0,1], both staleness 0
	gs := ready(t, c, 2, 2) // staleness 7: bias order [2,0,1] completes the group
	if len(gs) != 1 {
		t.Fatalf("expected group, got %v", gs)
	}
	if want := []int{2, 0, 1}; !reflect.DeepEqual(gs[0].Members, want) {
		t.Fatalf("members = %v, want straggler-first %v", gs[0].Members, want)
	}
	found := false
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KPolicyDecision {
			found = true
		}
	}
	if !found {
		t.Fatal("queue reorder was not recorded as a KPolicyDecision deviation")
	}
}
