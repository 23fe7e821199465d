package optim

import (
	"math"
	"testing"

	"partialreduce/internal/tensor"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{LR: 0},
		{LR: -1},
		{LR: 0.1, Momentum: 1},
		{LR: 0.1, Momentum: -0.1},
		{LR: 0.1, WeightDecay: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
	if err := Paper().Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
}

func TestPlainSGDStep(t *testing.T) {
	o := NewSGD(Config{LR: 0.5}, 2)
	p := tensor.Vector{1, 2}
	g := tensor.Vector{2, -2}
	o.Update(p, g, 1)
	if p[0] != 0 || p[1] != 3 {
		t.Fatalf("plain step: got %v", p)
	}
	if o.Step() != 1 {
		t.Fatalf("step count %d", o.Step())
	}
}

func TestMomentumAccumulates(t *testing.T) {
	o := NewSGD(Config{LR: 1, Momentum: 0.5}, 1)
	p := tensor.Vector{0}
	g := tensor.Vector{1}
	o.Update(p, g, 1) // v=1, p=-1
	o.Update(p, g, 1) // v=1.5, p=-2.5
	if math.Abs(p[0]-(-2.5)) > 1e-12 {
		t.Fatalf("momentum: got %v want -2.5", p[0])
	}
}

func TestWeightDecay(t *testing.T) {
	o := NewSGD(Config{LR: 1, WeightDecay: 0.1}, 1)
	p := tensor.Vector{10}
	g := tensor.Vector{0}
	o.Update(p, g, 1) // effective grad = 0 + 0.1*10 = 1
	if math.Abs(p[0]-9) > 1e-12 {
		t.Fatalf("weight decay: got %v want 9", p[0])
	}
}

func TestScaleAffectsSingleUpdate(t *testing.T) {
	o := NewSGD(Config{LR: 1}, 1)
	p := tensor.Vector{0}
	o.Update(p, tensor.Vector{1}, 0.25)
	if p[0] != -0.25 {
		t.Fatalf("scaled update: got %v", p[0])
	}
	o.Update(p, tensor.Vector{1}, 1)
	if p[0] != -1.25 {
		t.Fatalf("followup update: got %v", p[0])
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := StepDecay{Every: 10, Factor: 0.1}
	cases := map[int]float64{0: 1, 9: 1, 10: 0.1, 19: 0.1, 20: 0.01}
	for step, want := range cases {
		if got := s.Multiplier(step); math.Abs(got-want) > 1e-15 {
			t.Errorf("Multiplier(%d)=%v want %v", step, got, want)
		}
	}
	if (StepDecay{Every: 0, Factor: 0.1}).Multiplier(100) != 1 {
		t.Error("Every=0 should disable decay")
	}
}

func TestScheduledLR(t *testing.T) {
	o := NewSGD(Config{LR: 0.1, Schedule: StepDecay{Every: 2, Factor: 0.5}}, 1)
	p := tensor.Vector{0}
	g := tensor.Vector{1}
	if o.LR() != 0.1 {
		t.Fatalf("initial LR %v", o.LR())
	}
	o.Update(p, g, 1)
	o.Update(p, g, 1)
	if math.Abs(o.LR()-0.05) > 1e-15 {
		t.Fatalf("LR after 2 steps %v, want 0.05", o.LR())
	}
}

func TestResetAndClone(t *testing.T) {
	o := NewSGD(Config{LR: 1, Momentum: 0.9}, 2)
	p := tensor.Vector{0, 0}
	o.Update(p, tensor.Vector{1, 1}, 1)
	c := o.Clone()
	if c.Step() != 1 {
		t.Fatal("clone lost step count")
	}
	if err := o.Restore(tensor.Vector{0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	if o.Step() != 0 || o.velocity.NormInf() != 0 {
		t.Fatal("reset incomplete")
	}
	if c.velocity.NormInf() == 0 {
		t.Fatal("reset leaked into clone")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	o := NewSGD(Config{LR: 1}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched sizes")
		}
	}()
	o.Update(tensor.Vector{1}, tensor.Vector{1, 2}, 1)
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid config")
		}
	}()
	NewSGD(Config{LR: -1}, 1)
}

// Momentum SGD on a quadratic must converge to the minimum.
func TestQuadraticConvergence(t *testing.T) {
	o := NewSGD(Config{LR: 0.1, Momentum: 0.9}, 1)
	p := tensor.Vector{5}
	g := tensor.NewVector(1)
	for k := 0; k < 500; k++ {
		g[0] = 2 * p[0] // d/dx x^2
		o.Update(p, g, 1)
	}
	if math.Abs(p[0]) > 1e-6 {
		t.Fatalf("did not converge: %v", p[0])
	}
}

func TestStateRestore(t *testing.T) {
	o := NewSGD(Config{LR: 1, Momentum: 0.9}, 2)
	o.Update(tensor.Vector{0, 0}, tensor.Vector{1, 2}, 1)
	vel, step := o.State()
	if step != 1 || vel[1] != 2 {
		t.Fatalf("state: %v %d", vel, step)
	}
	// State returns a copy.
	vel[0] = 99
	if v2, _ := o.State(); v2[0] == 99 {
		t.Fatal("State aliased internal buffer")
	}

	o2 := NewSGD(Config{LR: 1, Momentum: 0.9}, 2)
	if err := o2.Restore(tensor.Vector{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	// Restored optimizer continues identically to the original.
	p1, p2 := tensor.Vector{0, 0}, tensor.Vector{0, 0}
	o.Restore(tensor.Vector{1, 2}, 1)
	o.Update(p1, tensor.Vector{1, 1}, 1)
	o2.Update(p2, tensor.Vector{1, 1}, 1)
	if p1[0] != p2[0] || p1[1] != p2[1] {
		t.Fatalf("restored optimizer diverged: %v vs %v", p1, p2)
	}
	if err := o2.Restore(tensor.Vector{1}, 0); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := o2.Restore(nil, -1); err == nil {
		t.Fatal("negative step accepted")
	}
	if err := o2.Restore(nil, 0); err != nil {
		t.Fatal(err)
	}
	if v, s := o2.State(); s != 0 || v.NormInf() != 0 {
		t.Fatal("nil restore did not zero state")
	}
}

// TestUpdateMatchesIndexedReference: the bounds-free loop is the same
// arithmetic as the indexed one it replaced — v ← μv + (g + λw); w ← w − lr·v,
// element by element — so 50 steps with a decaying rate, weight decay and a
// per-update scale leave identical bits in parameters and velocity.
func TestUpdateMatchesIndexedReference(t *testing.T) {
	cfg := Config{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, Schedule: StepDecay{Every: 20, Factor: 0.1}}
	const n = 301
	o := NewSGD(cfg, n)
	params, grad := tensor.NewVector(n), tensor.NewVector(n)
	refParams, refVel := tensor.NewVector(n), tensor.NewVector(n)
	for i := range params {
		params[i] = math.Sin(float64(i))
		refParams[i] = params[i]
	}
	for step := 0; step < 50; step++ {
		for i := range grad {
			grad[i] = math.Cos(float64(i*(step+1))) * float64(i%3) // exact zeros included
		}
		scale := 1 / float64(1+step%3)
		lr := o.LR() * scale
		for i := range refParams {
			g := grad[i] + cfg.WeightDecay*refParams[i]
			refVel[i] = cfg.Momentum*refVel[i] + g
			refParams[i] -= lr * refVel[i]
		}
		o.Update(params, grad, scale)
		vel, _ := o.State()
		for i := range params {
			if math.Float64bits(params[i]) != math.Float64bits(refParams[i]) ||
				math.Float64bits(vel[i]) != math.Float64bits(refVel[i]) {
				t.Fatalf("step %d elem %d: params %x/%x velocity %x/%x", step, i, params[i], refParams[i], vel[i], refVel[i])
			}
		}
	}
}

// BenchmarkSGDUpdate times one update of the repository benchmark's
// 266,244-parameter model. Eight replicas (parameters, gradient, velocity
// each) take turns, as the eight ranks of a live run do, so the 51 MB working
// set streams from beyond L2 instead of sitting in it.
func BenchmarkSGDUpdate(b *testing.B) {
	const d, replicas = 266244, 8
	cfg := Config{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4}
	opts := make([]*SGD, replicas)
	params := make([]tensor.Vector, replicas)
	grads := make([]tensor.Vector, replicas)
	for r := range opts {
		opts[r] = NewSGD(cfg, d)
		params[r] = tensor.NewVector(d)
		grads[r] = tensor.NewVector(d)
		for i := range grads[r] {
			grads[r][i] = float64(i%7) - 3
		}
	}
	b.SetBytes(5 * 8 * d) // read params, grad, velocity; write params, velocity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % replicas
		opts[r].Update(params[r], grads[r], 1)
	}
}
