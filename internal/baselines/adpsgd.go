package baselines

import (
	"math/rand"

	"partialreduce/internal/cluster"
	"partialreduce/internal/engine"
	"partialreduce/internal/metrics"
	"partialreduce/internal/sim"
	"partialreduce/internal/tensor"
)

// ADPSGD is asynchronous decentralized parallel SGD [29]: when a worker
// finishes a batch it atomically averages models with one uniformly random
// neighbor — without regard to the neighbor's state — then applies its
// gradient. The neighbor keeps computing while its model changes under it,
// so the gradient it eventually applies was computed on parameters that no
// longer exist: the inconsistent update that loosens AD-PSGD's convergence
// bound (§5.2.2). On the step machine only the initiator moves through
// reduce/apply — the neighbor's state is untouched mid-compute, which is
// precisely the inconsistency.
type ADPSGD struct{}

// NewADPSGD returns the AD-PSGD baseline.
func NewADPSGD() *ADPSGD { return &ADPSGD{} }

// Name implements cluster.Strategy.
func (*ADPSGD) Name() string { return "AD" }

// Run implements cluster.Strategy.
func (*ADPSGD) Run(c *cluster.Cluster) (*metrics.Result, error) {
	rng := sim.Stream(c.Cfg.Seed, 0xAD)
	avg := tensor.NewVector(len(c.Init))
	weights := engine.UniformWeights(2)
	pair := make([]tensor.Vector, 2)
	machine := engine.NewMachine(c.Cfg.N)

	var start func(w *cluster.Worker)
	start = func(w *cluster.Worker) {
		machine.To(w.ID, engine.StateCompute)
		c.Snapshot(w)
		c.Eng.After(c.ComputeTime(w), func() {
			grad, _ := c.Gradient(w) // at the snapshot, possibly stale by now
			j := pickNeighbor(rng, c.Cfg.N, w.ID)
			machine.To(w.ID, engine.StateReduce)
			c.ChargeExchange(1)
			c.Eng.After(c.PairTime(w.ID, j), func() {
				neighbor := c.Workers[j]
				// Atomic pairwise average; the neighbor is not interrupted.
				machine.To(w.ID, engine.StateApply)
				pair[0] = w.Params()
				pair[1] = neighbor.Params()
				tensor.WeightedAverage(avg, weights, pair)
				w.Params().CopyFrom(avg)
				neighbor.Params().CopyFrom(avg)
				// Gradient lands on the averaged model, not the one it was
				// computed on.
				w.Opt.Update(w.Params(), grad, 1)
				w.Iter++
				c.RecordUpdate()
				if !c.Eng.Stopped() {
					start(w)
				}
			})
		})
	}
	for _, w := range c.Workers {
		w := w
		c.Eng.At(0, func() { start(w) })
	}
	c.Eng.Run()
	return c.Finish(), nil
}

func pickNeighbor(rng *rand.Rand, n, self int) int {
	j := rng.Intn(n - 1)
	if j >= self {
		j++
	}
	return j
}
