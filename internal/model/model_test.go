package model

import (
	"math"
	"math/rand"
	"testing"

	"partialreduce/internal/data"
	"partialreduce/internal/optim"
	"partialreduce/internal/tensor"
)

func smallBatch(rng *rand.Rand, dim, classes, n int) *data.Batch {
	b := &data.Batch{}
	for i := 0; i < n; i++ {
		x := tensor.NewVector(dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		b.X = append(b.X, x)
		b.Y = append(b.Y, rng.Intn(classes))
	}
	return b
}

func TestParamLayout(t *testing.T) {
	m := NewMLP(Spec{Inputs: 4, Hidden: []int{5}, Classes: 3}, 1)
	want := 5*4 + 5 + 3*5 + 3
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
	if len(m.Params()) != want {
		t.Fatalf("Params len = %d, want %d", len(m.Params()), want)
	}
	// Params is live storage: writing through it changes predictions.
	x := tensor.Vector{1, 2, 3, 4}
	before := m.forward(x).Clone()
	m.Params().Fill(0)
	after := m.forward(x)
	if before.Sub(after); before.NormInf() == 0 {
		t.Fatal("zeroing Params did not change the forward pass")
	}
}

func TestSetParamsCopies(t *testing.T) {
	m := NewMLP(Spec{Inputs: 2, Classes: 2}, 1)
	p := m.Params().Clone()
	p.Fill(0.5)
	m.SetParams(p)
	p.Fill(-1) // must not leak into the model
	for _, v := range m.Params() {
		if v != 0.5 {
			t.Fatal("SetParams aliased caller storage")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMLP(Spec{Inputs: 3, Hidden: []int{4}, Classes: 2}, 2)
	c := m.Clone().(*MLP)
	c.Params().Fill(0)
	if m.Params().NormInf() == 0 {
		t.Fatal("Clone shares parameter storage")
	}
	// Clone's views must be bound to its own flat vector.
	rng := rand.New(rand.NewSource(3))
	b := smallBatch(rng, 3, 2, 8)
	g := tensor.NewVector(c.NumParams())
	c.Gradient(g, b)
	if m.Params().NormInf() == 0 {
		t.Fatal("gradient on clone corrupted original")
	}
}

// Finite-difference gradient check: the backprop gradient must match
// numerical differentiation of the loss.
func TestGradientFiniteDifference(t *testing.T) {
	specs := []Spec{
		{Inputs: 5, Classes: 3},                   // softmax regression
		{Inputs: 5, Hidden: []int{7}, Classes: 3}, // one hidden layer
		{Inputs: 4, Hidden: []int{6, 5}, Classes: 4},
	}
	rng := rand.New(rand.NewSource(4))
	for si, spec := range specs {
		m := NewMLP(spec, int64(si)+10)
		b := smallBatch(rng, spec.Inputs, spec.Classes, 6)
		g := tensor.NewVector(m.NumParams())
		m.Gradient(g, b)

		const h = 1e-5
		p := m.Params()
		// Check a deterministic sample of coordinates (all, for small nets).
		step := 1
		if m.NumParams() > 200 {
			step = m.NumParams() / 97
		}
		for i := 0; i < m.NumParams(); i += step {
			orig := p[i]
			p[i] = orig + h
			lp := m.Loss(b)
			p[i] = orig - h
			lm := m.Loss(b)
			p[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-g[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("spec %d coord %d: backprop %.8f vs numeric %.8f", si, i, g[i], num)
			}
		}
	}
}

func TestGradientReturnsLoss(t *testing.T) {
	m := NewMLP(Spec{Inputs: 3, Hidden: []int{4}, Classes: 3}, 5)
	rng := rand.New(rand.NewSource(6))
	b := smallBatch(rng, 3, 3, 10)
	g := tensor.NewVector(m.NumParams())
	if got, want := m.Gradient(g, b), m.Loss(b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Gradient loss %v != Loss %v", got, want)
	}
	if m.Gradient(g, &data.Batch{}) != 0 {
		t.Fatal("empty batch should produce zero loss")
	}
	if g.NormInf() != 0 {
		t.Fatal("empty batch should produce zero gradient")
	}
}

func TestGradientBufferMismatchPanics(t *testing.T) {
	m := NewMLP(Spec{Inputs: 2, Classes: 2}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong gradient buffer size")
		}
	}()
	m.Gradient(tensor.NewVector(1), &data.Batch{})
}

// SGD on a separable mixture must reach high accuracy: end-to-end sanity for
// forward, backward, and prediction together.
func TestTrainingConverges(t *testing.T) {
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: 3, Dim: 8, Examples: 900, Separation: 4, Noise: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.8)
	m := NewMLP(Spec{Inputs: 8, Hidden: []int{16}, Classes: 3}, 8)
	s := data.NewSampler(train, 9)
	g := tensor.NewVector(m.NumParams())
	var b *data.Batch
	for k := 0; k < 400; k++ {
		b = s.Sample(b, 32)
		m.Gradient(g, b)
		m.Params().Axpy(-0.1, g)
	}
	if acc := Accuracy(m, test); acc < 0.9 {
		t.Fatalf("accuracy after training = %.3f, want >= 0.9", acc)
	}
}

func TestSoftmaxRegressionMatchesClosedForm(t *testing.T) {
	// For a single example and zero weights, the CE gradient of the output
	// layer is (softmax(0) - onehot) xᵀ = (1/C - onehot) xᵀ.
	m := NewMLP(Spec{Inputs: 2, Classes: 2}, 1)
	m.Params().Zero()
	b := &data.Batch{X: []tensor.Vector{{1, 2}}, Y: []int{0}}
	g := tensor.NewVector(m.NumParams())
	m.Gradient(g, b)
	// Layout: W(2x2) then b(2). Row 0 = class 0.
	want := []float64{-0.5, -1.0, 0.5, 1.0, -0.5, 0.5}
	for i, w := range want {
		if math.Abs(g[i]-w) > 1e-12 {
			t.Fatalf("closed-form grad mismatch at %d: got %v want %v", i, g[i], w)
		}
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := NewMLP(Spec{Inputs: 2, Classes: 2}, 1)
	empty := &data.Dataset{X: tensor.NewMatrix(0, 2), Y: nil, Classes: 2}
	if Accuracy(m, empty) != 0 {
		t.Fatal("accuracy on empty dataset should be 0")
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{ResNet34, VGG19, DenseNet121, ResNet18, VGG16} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.WireBytes() != int64(p.WireParams)*4 {
			t.Errorf("%s: WireBytes mismatch", p.Name)
		}
	}
	bad := Profile{Name: "x"}
	if bad.Validate() == nil {
		t.Error("zero profile should not validate")
	}
	// The paper's compute/communication split: VGGs are comm-bound relative
	// to ResNets (more wire bytes per compute second).
	if VGG19.BatchCompute/float64(VGG19.WireParams) >= ResNet34.BatchCompute/float64(ResNet34.WireParams) {
		t.Error("VGG-19 should be more communication-bound than ResNet-34")
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewMLP(Spec{Inputs: 4, Hidden: []int{8}, Classes: 3}, 42)
	b := NewMLP(Spec{Inputs: 4, Hidden: []int{8}, Classes: 3}, 42)
	for i := range a.Params() {
		if a.Params()[i] != b.Params()[i] {
			t.Fatal("same seed produced different init")
		}
	}
	c := NewMLP(Spec{Inputs: 4, Hidden: []int{8}, Classes: 3}, 43)
	diff := false
	for i := range a.Params() {
		if a.Params()[i] != c.Params()[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical init")
	}
}

// referenceGradient is the three-pass gradient Gradient replaced — zero the
// destination, accumulate every example through AddOuter, scale by 1/B —
// kept as the arithmetic the one-pass version must reproduce bit for bit.
func referenceGradient(m *MLP, dst tensor.Vector, b *data.Batch) float64 {
	dst.Zero()
	gws, gbs := m.bindViews(nil, nil, dst)
	last := len(m.sizes) - 1
	var totalLoss float64
	for i, x := range b.X {
		logits := m.forward(x)
		totalLoss += tensor.LogSumExp(logits) - logits[b.Y[i]]
		tensor.Softmax(m.probs, logits)
		d := m.deltas[last]
		d.CopyFrom(m.probs)
		d[b.Y[i]] -= 1
		for l := last - 1; l >= 0; l-- {
			gws[l].AddOuter(1, m.deltas[l+1], m.acts[l])
			gbs[l].Add(m.deltas[l+1])
			if l > 0 {
				m.ws[l].MulVecT(m.deltas[l], m.deltas[l+1])
				for j, a := range m.acts[l] {
					if a <= 0 {
						m.deltas[l][j] = 0
					}
				}
			}
		}
	}
	dst.Scale(1 / float64(len(b.X)))
	return totalLoss / float64(len(b.X))
}

// diffBits reports the first index at which a and b differ as bit patterns
// (so +0 ≠ −0), or -1.
func diffBits(a, b tensor.Vector) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestGradientMatchesThreePassReference trains two replicas for 50 momentum
// SGD steps, one on Gradient and one on the three-pass reference, and demands
// identical bits from every gradient, loss and parameter vector — zero signs
// included: inputs carry exact zeros and ReLU produces more, so −0 products
// reach the gradient on every step.
func TestGradientMatchesThreePassReference(t *testing.T) {
	cfg := optim.Config{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	for _, hidden := range [][]int{nil, {64}, {16, 8}} {
		for _, batch := range []int{1, 4} {
			spec := Spec{Inputs: 12, Hidden: hidden, Classes: 4}
			got, want := NewMLP(spec, 7), NewMLP(spec, 7)
			optGot, optWant := optim.NewSGD(cfg, got.NumParams()), optim.NewSGD(cfg, want.NumParams())
			gGot, gWant := tensor.NewVector(got.NumParams()), tensor.NewVector(want.NumParams())
			gGot.Fill(math.NaN()) // Gradient must overwrite, never accumulate into, dst
			rng := rand.New(rand.NewSource(int64(len(hidden)*10 + batch)))
			for step := 0; step < 50; step++ {
				b := smallBatch(rng, spec.Inputs, spec.Classes, batch)
				for _, x := range b.X {
					x[rng.Intn(len(x))] = 0
				}
				lGot, lWant := got.Gradient(gGot, b), referenceGradient(want, gWant, b)
				if math.Float64bits(lGot) != math.Float64bits(lWant) {
					t.Fatalf("hidden=%v B=%d step %d: loss %x != %x", hidden, batch, step, lGot, lWant)
				}
				if i := diffBits(gGot, gWant); i >= 0 {
					t.Fatalf("hidden=%v B=%d step %d: grad[%d] = %x, want %x", hidden, batch, step, i, gGot[i], gWant[i])
				}
				optGot.Update(got.Params(), gGot, 1)
				optWant.Update(want.Params(), gWant, 1)
				if i := diffBits(got.Params(), want.Params()); i >= 0 {
					t.Fatalf("hidden=%v B=%d step %d: param[%d] diverged", hidden, batch, step, i)
				}
			}
		}
	}
}

// checkSwapParams is the SwapParams contract, shared by both model types:
// the views follow the new storage, the old storage is returned and
// released, Clone/SetParams/Predict agree with a model that copied the same
// parameters, a wrong length panics, and the swap allocates nothing.
func checkSwapParams(t *testing.T, m Model, x tensor.Vector, b *data.Batch) {
	t.Helper()
	ref := m.Clone()
	old := m.Params()
	next := old.Clone()
	for i := range next {
		next[i] = -0.5 * next[i]
	}
	ref.SetParams(next)

	back := m.SwapParams(next)
	if &back[0] != &old[0] || &m.Params()[0] != &next[0] {
		t.Fatal("SwapParams did not trade the storage")
	}
	if m.Predict(x) != ref.Predict(x) || m.Loss(b) != ref.Loss(b) || m.Clone().Loss(b) != ref.Loss(b) {
		t.Fatal("views did not follow the swapped-in storage")
	}
	g, gRef := tensor.NewVector(m.NumParams()), tensor.NewVector(m.NumParams())
	m.Gradient(g, b)
	ref.Gradient(gRef, b)
	if i := diffBits(g, gRef); i >= 0 {
		t.Fatalf("gradient after swap differs at %d", i)
	}
	back.Fill(math.NaN()) // the model must no longer read the old storage
	if l := m.Loss(b); math.IsNaN(l) || l != ref.Loss(b) {
		t.Fatalf("model still reads its swapped-out storage: loss %v", l)
	}

	m.SetParams(gRef) // SetParams writes the swapped-in storage
	if diffBits(next, gRef) >= 0 {
		t.Fatal("SetParams after swap did not write the live storage")
	}

	spare := tensor.NewVector(m.NumParams())
	if allocs := testing.AllocsPerRun(10, func() { spare = m.SwapParams(spare) }); allocs > 0 {
		t.Fatalf("SwapParams allocates %.1f times per call", allocs)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("SwapParams accepted a buffer of the wrong length")
		}
	}()
	m.SwapParams(tensor.NewVector(m.NumParams() + 1))
}

func TestSwapParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := smallBatch(rng, 10, 3, 5)
	checkSwapParams(t, NewMLP(Spec{Inputs: 10, Hidden: []int{6, 5}, Classes: 3}, 2), b.X[0], b)
}

// TestGradientSteadyStateAllocFree is the allocgate entry for the training
// step's compute half: with the same destination buffer every call, as in a
// training loop, Gradient binds its views once and then never touches the
// heap — also across a SwapParams.
func TestGradientSteadyStateAllocFree(t *testing.T) {
	m := NewMLP(Spec{Inputs: 12, Hidden: []int{16, 8}, Classes: 4}, 3)
	b := smallBatch(rand.New(rand.NewSource(5)), 12, 4, 2)
	g, spare := tensor.NewVector(m.NumParams()), tensor.NewVector(m.NumParams())
	m.Gradient(g, b) // binds the gradient views
	step := func() {
		m.Gradient(g, b)
		spare = m.SwapParams(spare)
	}
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Fatalf("steady-state Gradient allocates %.1f times per call", allocs)
	}
}

// TestFactoredStepMatchesGradientUpdate is the oracle for the B = 1 local
// step that materializes nothing: 200 steps of GradientFactors +
// UpdateFactored leave, step for step, the bits of Gradient + Update in
// parameters and velocity alike. The replicas start with a dead ReLU unit
// (zero gradient row; weight decay and momentum still apply), ±0 parameters
// and ±0 inputs, so −0 products reach both forms; every step has scale ≠ 1,
// and the configurations cover a decaying rate and no weight decay.
func TestFactoredStepMatchesGradientUpdate(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, cfg := range []optim.Config{
		{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, Schedule: optim.StepDecay{Every: 60, Factor: 0.1}},
		{LR: 0.05, Momentum: 0.9},
	} {
		for _, hidden := range [][]int{nil, {16}, {16, 8}} {
			spec := Spec{Inputs: 12, Hidden: hidden, Classes: 4}
			got, want := NewMLP(spec, 7), NewMLP(spec, 7)
			for _, m := range []*MLP{got, want} {
				p := m.Params()
				p[0], p[1], p[len(p)-1] = 0, negZero, negZero
				if len(hidden) > 0 { // unit 3 of the first hidden layer never fires
					m.ws[0].Row(3).Fill(negZero)
					m.bs[0][3] = -1
				}
			}
			optGot, optWant := optim.NewSGD(cfg, got.NumParams()), optim.NewSGD(cfg, want.NumParams())
			grad := tensor.NewVector(want.NumParams())
			rng := rand.New(rand.NewSource(int64(len(hidden))))
			for step := 0; step < 200; step++ {
				b := smallBatch(rng, spec.Inputs, spec.Classes, 1)
				b.X[0][rng.Intn(spec.Inputs)] = 0
				b.X[0][rng.Intn(spec.Inputs)] = negZero
				scale := 1 / float64(1+step%3)

				optGot.UpdateFactored(got.Params(), got.GradientFactors(b), scale)
				want.Gradient(grad, b)
				optWant.Update(want.Params(), grad, scale)

				if i := diffBits(got.Params(), want.Params()); i >= 0 {
					t.Fatalf("wd=%v hidden=%v step %d: param[%d] = %x, want %x",
						cfg.WeightDecay, hidden, step, i, got.Params()[i], want.Params()[i])
				}
				vGot, _ := optGot.State()
				vWant, _ := optWant.State()
				if i := diffBits(vGot, vWant); i >= 0 {
					t.Fatalf("wd=%v hidden=%v step %d: velocity[%d] = %x, want %x",
						cfg.WeightDecay, hidden, step, i, vGot[i], vWant[i])
				}
			}
			if optGot.Step() != optWant.Step() {
				t.Fatalf("factored updates counted %d steps, want %d", optGot.Step(), optWant.Step())
			}
		}
	}
}

// TestFactoredStepSteadyStateAllocFree is the allocgate entry for the B = 1
// local step: the factors are the model's scratch, bound once, so gradient,
// update and the SwapParams a live worker does after every group never touch
// the heap.
func TestFactoredStepSteadyStateAllocFree(t *testing.T) {
	m := NewMLP(Spec{Inputs: 12, Hidden: []int{16, 8}, Classes: 4}, 3)
	b := smallBatch(rand.New(rand.NewSource(5)), 12, 4, 1)
	opt := optim.NewSGD(optim.Paper(), m.NumParams())
	spare := tensor.NewVector(m.NumParams())
	step := func() {
		opt.UpdateFactored(m.Params(), m.GradientFactors(b), 1)
		spare = m.SwapParams(spare)
	}
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Fatalf("steady-state factored step allocates %.1f times per call", allocs)
	}
}

// BenchmarkMLPGradient times one batch-size-1 gradient of the repository
// benchmark's 266,244-parameter model. Eight replicas take turns, as the
// eight ranks of a live run do, so parameters and gradient stream from
// beyond L2 instead of sitting in it.
func BenchmarkMLPGradient(b *testing.B) {
	const replicas = 8
	spec := Spec{Inputs: 60, Hidden: []int{4096}, Classes: 4}
	batch := smallBatch(rand.New(rand.NewSource(1)), spec.Inputs, spec.Classes, 1)
	ms := make([]*MLP, replicas)
	gs := make([]tensor.Vector, replicas)
	for r := range ms {
		ms[r] = NewMLP(spec, int64(r))
		gs[r] = tensor.NewVector(ms[r].NumParams())
	}
	b.SetBytes(int64(2 * 8 * ms[0].NumParams())) // read the parameters, write the gradient
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms[i%replicas].Gradient(gs[i%replicas], batch)
	}
}

// BenchmarkFactoredStep times the whole B = 1 local step of that model —
// forward, deltas, and the update that consumes the factored gradient — over
// eight rotating replicas (parameters and velocity: 34 MB). Compare with
// BenchmarkMLPGradient plus optim's BenchmarkSGDUpdate, the materialized pair.
func BenchmarkFactoredStep(b *testing.B) {
	const replicas = 8
	spec := Spec{Inputs: 60, Hidden: []int{4096}, Classes: 4}
	batch := smallBatch(rand.New(rand.NewSource(1)), spec.Inputs, spec.Classes, 1)
	cfg := optim.Config{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4}
	ms := make([]*MLP, replicas)
	opts := make([]*optim.SGD, replicas)
	for r := range ms {
		ms[r] = NewMLP(spec, int64(r))
		opts[r] = optim.NewSGD(cfg, ms[r].NumParams())
	}
	b.SetBytes(int64(5 * 8 * ms[0].NumParams())) // read the parameters twice and the velocity; write both
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % replicas
		opts[r].UpdateFactored(ms[r].Params(), ms[r].GradientFactors(batch), 1)
	}
}
