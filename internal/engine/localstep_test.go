package engine

import (
	"math"
	"math/rand"
	"testing"

	"partialreduce/internal/data"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
	"partialreduce/internal/tensor"
)

// TestLocalStepSelection pins the one place the factored step is chosen: an
// MLP on a one-example batch never needs the gradient buffer (it stays nil),
// while B = 2 falls through to Gradient + Update and allocates it on that
// first step — and every path leaves, step for step, the bits of
// Gradient + Update in parameters and velocity.
func TestLocalStepSelection(t *testing.T) {
	cfg := optim.Config{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	for _, tc := range []struct {
		name     string
		build    model.Builder
		batch    int
		factored bool
	}{
		{"mlp/B=1", model.Spec{Inputs: 10, Hidden: []int{6, 5}, Classes: 3}, 1, true},
		{"mlp/B=2", model.Spec{Inputs: 10, Hidden: []int{6, 5}, Classes: 3}, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := tc.build.Build(3), tc.build.Build(3)
			optGot, optWant := optim.NewSGD(cfg, got.NumParams()), optim.NewSGD(cfg, want.NumParams())
			var grad tensor.Vector
			ref := tensor.NewVector(want.NumParams())
			rng := rand.New(rand.NewSource(11))
			for step := 0; step < 40; step++ {
				b := &data.Batch{}
				for i := 0; i < tc.batch; i++ {
					x := tensor.NewVector(10)
					for j := range x {
						x[j] = rng.NormFloat64() * float64(rng.Intn(3)) // exact zeros included
					}
					b.X, b.Y = append(b.X, x), append(b.Y, rng.Intn(3))
				}

				localStep(got, optGot, &grad, b)
				want.Gradient(ref, b)
				optWant.Update(want.Params(), ref, 1)

				if (grad == nil) != tc.factored {
					t.Fatalf("step %d: gradient buffer allocated = %v, want factored = %v", step, grad != nil, tc.factored)
				}
				vGot, _ := optGot.State()
				vWant, _ := optWant.State()
				for i, p := range want.Params() {
					if math.Float64bits(got.Params()[i]) != math.Float64bits(p) ||
						math.Float64bits(vGot[i]) != math.Float64bits(vWant[i]) {
						t.Fatalf("step %d elem %d: params %x/%x velocity %x/%x", step, i, got.Params()[i], p, vGot[i], vWant[i])
					}
				}
			}
		})
	}
}
