package collective

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"partialreduce/internal/optim"
	"partialreduce/internal/tensor"
	"partialreduce/internal/transport"
)

// eachMember runs f concurrently on every rank of world, the group being the
// whole world, and joins their errors.
func eachMember(world []transport.Transport, f func(r int, group []int) error) error {
	group := make([]int, len(world))
	for r := range group {
		group[r] = r
	}
	errs := make([]error, len(world))
	var wg sync.WaitGroup
	for r := range world {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = f(r, group)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestAllReduceApplyMatchesMeanThenUpdate is the sharded update's
// bit-identity property. For g ∈ {1, 2, 3, 5, 8} and n ∈ {g−1 (empty
// chunks), 108 (the exchange at g = 8), 340 (hetero's ring), 4097,
// 266,244 (the 8-rank
// world ring's two 32 Ki segments per step)} over Mem, plus one TCP cell,
// three iterations of AllReduceApply with SGD.UpdateRange leave every
// replica's parameters, and each rank's velocity on every range it updated,
// equal bit for bit to AllReduceMeanOpts followed by SGD.Update. The learning
// rate decays every step, so a range update that miscounts steps shows too.
// The ranges a rank updates are the same every iteration and together
// cover the model.
func TestAllReduceApplyMatchesMeanThenUpdate(t *testing.T) {
	type cell struct {
		name  string
		g, n  int
		world func(g int) []transport.Transport
	}
	mem := func(g int) []transport.Transport { return asWorld(transport.NewMem(g)) }
	var cells []cell
	for _, g := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{g - 1, 108, 340, 4097, 266244} {
			cells = append(cells, cell{fmt.Sprintf("mem/g=%d/n=%d", g, n), g, n, mem})
		}
	}
	cells = append(cells, cell{"tcp/g=5/n=4097", 5, 4097, func(g int) []transport.Transport { return tcpWorld(t, g, transport.TCPOptions{}) }})
	cfg := optim.Config{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, Schedule: optim.StepDecay{Every: 1, Factor: 0.5}}
	const iters = 3

	for ci, c := range cells {
		name := c.name
		world := c.world(c.g)
		rng := rand.New(rand.NewSource(int64(ci)))
		init := make([]float64, c.n)
		for i := range init {
			init[i] = rng.NormFloat64()
		}
		// gradient fills rank r's gradient of iteration it, the same on
		// both sides.
		gradient := func(dst []float64, r, it int) {
			rng := rand.New(rand.NewSource(int64(1000*ci + 10*r + it)))
			for i := range dst {
				dst[i] = rng.NormFloat64()
			}
		}
		side := func(sharded bool) ([][]float64, []*optim.SGD, [][][2]int) {
			params := make([][]float64, c.g)
			opts := make([]*optim.SGD, c.g)
			ranges := make([][][2]int, c.g)
			for it := 0; it < iters; it++ {
				err := eachMember(world, func(r int, group []int) error {
					if it == 0 {
						params[r] = append([]float64(nil), init...)
						opts[r] = optim.NewSGD(cfg, c.n)
					}
					grad := make([]float64, c.n)
					gradient(grad, r, it)
					op := uint32(1 + it)
					if !sharded {
						if err := AllReduceMeanOpts(world[r], group, op, grad, Options{}); err != nil {
							return err
						}
						opts[r].Update(params[r], grad, 1)
						return nil
					}
					return AllReduceApply(world[r], group, 100+op, grad, params[r], func(lo, hi int) {
						ranges[r] = append(ranges[r], [2]int{lo, hi})
						opts[r].UpdateRange(params[r], grad, lo, hi)
					}, Options{})
				})
				if err != nil {
					t.Fatalf("%s sharded=%v iter %d: %v", name, sharded, it, err)
				}
			}
			return params, opts, ranges
		}
		wantParams, wantOpts, _ := side(false)
		gotParams, gotOpts, ranges := side(true)

		covered := make([]bool, c.n)
		for r := 0; r < c.g; r++ {
			if i := diffBits(gotParams[r], wantParams[r]); i >= 0 {
				t.Fatalf("%s rank %d param %d: %x, mean-then-update %x", name, r, i, gotParams[r][i], wantParams[r][i])
			}
			if got, want := gotOpts[r].Step(), wantOpts[r].Step(); got != want {
				t.Fatalf("%s rank %d: %d steps, want %d", name, r, got, want)
			}
			if len(ranges[r]) != iters {
				t.Fatalf("%s rank %d: apply called %d times in %d iterations", name, r, len(ranges[r]), iters)
			}
			for _, rg := range ranges[r] {
				if rg != ranges[r][0] {
					t.Fatalf("%s rank %d: applied %v, then %v", name, r, ranges[r][0], rg)
				}
			}
			gotV, _ := gotOpts[r].State()
			wantV, _ := wantOpts[r].State()
			lo, hi := ranges[r][0][0], ranges[r][0][1]
			if i := diffBits(gotV[lo:hi], wantV[lo:hi]); i >= 0 {
				t.Fatalf("%s rank %d velocity %d (owned [%d,%d)): %x, mean-then-update %x", name, r, lo+i, lo, hi, gotV[lo+i], wantV[lo+i])
			}
			for i := lo; i < hi; i++ {
				covered[i] = true
			}
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("%s: no rank updated element %d", name, i)
			}
		}
	}
}

// TestAllReduceApplyRefusesRetry: apply is not idempotent, so a deadline
// with a retry budget is refused before anything is sent or applied. A
// retry budget without a deadline means one attempt and runs.
func TestAllReduceApplyRefusesRetry(t *testing.T) {
	world := asWorld(transport.NewMem(2))
	grad, params := make([]float64, 8), make([]float64, 8)
	applied := false
	var stats OpStats
	err := AllReduceApply(world[0], []int{0, 1}, 1, grad, params, func(int, int) { applied = true },
		Options{Timeout: time.Second, Retry: RetryPolicy{MaxAttempts: 2}, Stats: &stats})
	if err == nil {
		t.Fatal("retry budget accepted")
	}
	if applied || stats != (OpStats{}) {
		t.Fatalf("refused call applied=%v stats=%+v", applied, stats)
	}
	buf := make([]float64, 8)
	if _, err := world[1].RecvIntoTimeout(0, tag(1, epochPhase(0, phaseReduceScatter), 0), buf, 20*time.Millisecond); !transport.IsTimeout(err) {
		t.Fatalf("peer received from a refused call: %v", err)
	}

	err = eachMember(world, func(r int, group []int) error {
		return AllReduceApply(world[r], group, 2, make([]float64, 8), make([]float64, 8), func(int, int) {},
			Options{Retry: RetryPolicy{MaxAttempts: 2}})
	})
	if err != nil {
		t.Fatalf("retry budget without a deadline: %v", err)
	}
}

// rangeUpdates returns, per rank, an SGD range update over params[r] and
// grads[r], bound once so that calling it allocates nothing.
func rangeUpdates(params, grads [][]float64) []func(lo, hi int) {
	out := make([]func(lo, hi int), len(params))
	for r := range out {
		opt := optim.NewSGD(optim.Paper(), len(params[r]))
		p, g := tensor.Vector(params[r]), tensor.Vector(grads[r])
		out[r] = func(lo, hi int) { opt.UpdateRange(p, g, lo, hi) }
	}
	return out
}
