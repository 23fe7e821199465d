package baselines

import (
	"partialreduce/internal/cluster"
	"partialreduce/internal/engine"
	"partialreduce/internal/metrics"
	"partialreduce/internal/tensor"
)

// DPSGD is synchronous decentralized parallel SGD [28] (§2.2): workers sit
// on a ring; every iteration each worker computes a gradient, then averages
// its model with its two ring neighbors (gossip with the standard 1/3
// mixing weights) and applies the gradient. Like All-Reduce it is
// bulk-synchronous — the round waits for the slowest worker — but each
// round moves only neighbor-sized messages, so its per-update time is
// cheaper while its mixing (and hence statistical efficiency at a given
// accuracy) is weaker: updates take Θ(N) rounds to traverse the ring.
type DPSGD struct{}

// NewDPSGD returns the D-PSGD baseline.
func NewDPSGD() *DPSGD { return &DPSGD{} }

// Name implements cluster.Strategy.
func (*DPSGD) Name() string { return "D-PSGD" }

// Run implements cluster.Strategy.
func (*DPSGD) Run(c *cluster.Cluster) (*metrics.Result, error) {
	n := c.Cfg.N
	next := make([]tensor.Vector, n) // post-gossip models, built per round
	for i := range next {
		next[i] = tensor.NewVector(len(c.Init))
	}
	weights := engine.UniformWeights(3) // ring gossip: left, self, right
	neighbors := make([]tensor.Vector, 3)
	machine := engine.NewMachine(n)

	var round func()
	round = func() {
		// Synchronous round: barrier on the slowest compute, then one
		// neighbor exchange (each worker sends its model both ways and
		// receives two — two point-to-point transfers that overlap, so the
		// round pays one pairwise exchange).
		var maxDt float64
		for _, w := range c.Workers {
			machine.To(w.ID, engine.StateCompute)
			if dt := c.ComputeTime(w); dt > maxDt {
				maxDt = dt
			}
		}
		worst := 0.0
		for i := range c.Workers {
			if t := c.PairTime(i, (i+1)%n); t > worst {
				worst = t
			}
		}
		c.ChargeExchange(n) // one bidirectional model exchange per ring link
		c.Eng.After(maxDt+worst, func() {
			// Gossip averaging with ring weights 1/3–1/3–1/3, then the local
			// gradient (computed at the pre-gossip model, as in D-PSGD).
			for i, w := range c.Workers {
				machine.To(w.ID, engine.StateReduce)
				neighbors[0] = c.Workers[(i-1+n)%n].Params()
				neighbors[1] = w.Params()
				neighbors[2] = c.Workers[(i+1)%n].Params()
				tensor.WeightedAverage(next[i], weights, neighbors)
			}
			for i, w := range c.Workers {
				machine.To(w.ID, engine.StateApply)
				g, _ := c.GradientAtCurrent(w)
				w.Params().CopyFrom(next[i])
				w.Opt.Update(w.Params(), g, 1)
				w.Iter++
			}
			c.RecordUpdate()
			if !c.Eng.Stopped() {
				round()
			}
		})
	}
	c.Eng.At(0, round)
	c.Eng.Run()
	return c.Finish(), nil
}
