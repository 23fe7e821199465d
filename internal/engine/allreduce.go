package engine

import (
	"partialreduce/internal/cluster"
	"partialreduce/internal/metrics"
	"partialreduce/internal/tensor"
)

// RunAllReduceSim is the simulated All-Reduce baseline: every iteration all
// N workers barrier, average gradients with one full-cluster ring
// all-reduce, and apply the identical update. The round takes as long as the
// slowest worker — the straggler sensitivity the paper targets. It is the
// same training step RunAllReduceWorker executes live: compute → reduce →
// apply on the step machine, with the gradient mean computed by the shared
// aggregation rule; only the ring differs (priced and charged by the
// cluster here, a real collective there). Live, each rank updates only the
// chunk it reduced and the ring gathers the parameters; every worker here
// updates all of them. The bits agree: the momentum element update does not
// depend on its position, and every replica holds the same model.
//
// All-Reduce honors a crash schedule the only way a global collective can
// (§4): the first fail-stop halts training — every subsequent round would
// block forever on the dead rank — and the run is recorded as not converged.
func RunAllReduceSim(c *cluster.Cluster) (*metrics.Result, error) {
	n := c.Cfg.N
	avg := tensor.NewVector(len(c.Init))
	weights := UniformWeights(n)
	grads := make([]tensor.Vector, n)
	machine := NewMachine(n)
	c.ScheduleCrashes(func(w int) { machine.Kill(w); c.Eng.Stop() })

	var round func()
	round = func() {
		// The barrier waits for the slowest worker's batch, then the group
		// pays one full-cluster ring all-reduce.
		var maxDt float64
		for _, w := range c.Workers {
			machine.To(w.ID, StateCompute)
			if dt := c.ComputeTime(w); dt > maxDt {
				maxDt = dt
			}
		}
		ring := c.RingAll()
		c.Eng.After(maxDt+ring, func() {
			for i, w := range c.Workers {
				machine.To(w.ID, StateReduce)
				grads[i], _ = c.GradientAtCurrent(w)
			}
			tensor.WeightedAverage(avg, weights, grads)
			for _, w := range c.Workers {
				machine.To(w.ID, StateApply)
				w.Opt.Update(w.Params(), avg, 1)
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
