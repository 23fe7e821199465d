package baselines

import (
	"partialreduce/internal/cluster"
	"partialreduce/internal/metrics"
	"partialreduce/internal/tensor"
)

// EagerReduce models partial collective operations (Eager-SGD, [25]):
// gradient aggregation rounds that fire as soon as a majority of workers
// have contributed, with three properties the paper's critique rests on:
//
//   - Non-blocking workers: a worker deposits its gradient, applies the most
//     recently completed round's aggregate to its replica, and immediately
//     keeps computing — nobody waits for stragglers, so rounds advance at
//     the majority's pace.
//   - Cached stale gradients: a worker that missed a round is represented by
//     its last deposited gradient, which the collective re-applies until a
//     fresh one replaces it ("accumulated/empty gradients").
//   - Missed aggregates are never recovered: a replica only applies the
//     aggregates of rounds it is present for, so slow replicas drift from
//     the fast majority.
//
// Stale replays bias the aggregate and replica drift degrades the averaged
// model, which is why ER fails to reach the paper's accuracy thresholds
// under heterogeneity (Fig. 7a; "N/A" in Table 1).
type EagerReduce struct{}

// NewEagerReduce returns the ER baseline. A round closes on a majority
// quorum: ⌊N/2⌋+1 fresh contributions.
func NewEagerReduce() *EagerReduce { return &EagerReduce{} }

// Name implements cluster.Strategy.
func (*EagerReduce) Name() string { return "ER" }

// Run implements cluster.Strategy. ER is the one baseline that does not
// ride the step machine or tensor.WeightedAverage: its rounds are decoupled
// from the worker loops (a worker deposits and keeps going, so no worker is
// ever "in" the collective), and its aggregate is a sum-then-scale over all
// N cached slots — including stale replays — not a convex combination of
// fresh contributions.
func (*EagerReduce) Run(c *cluster.Cluster) (*metrics.Result, error) {
	quorum := c.Cfg.N/2 + 1
	n := float64(c.Cfg.N)

	// cached[i] is worker i's most recent gradient (zero until it first
	// contributes); lastAgg is the most recently completed aggregate.
	cached := make([]tensor.Vector, c.Cfg.N)
	for i := range cached {
		cached[i] = tensor.NewVector(len(c.Init))
	}
	lastAgg := tensor.NewVector(len(c.Init))
	haveAgg := false
	aggRound := 0
	applied := make([]int, c.Cfg.N) // last aggregate round worker applied
	fresh := 0
	inFlight := false

	var start func(w *cluster.Worker)
	var maybeLaunch func()

	finishRound := func() {
		lastAgg.Zero()
		for i := range cached {
			lastAgg.Add(cached[i])
		}
		lastAgg.Scale(1 / n)
		haveAgg = true
		aggRound++
		fresh = 0
		inFlight = false
		c.RecordUpdate()
		if !c.Eng.Stopped() {
			maybeLaunch() // deposits may have accumulated during the flight
		}
	}

	maybeLaunch = func() {
		if inFlight || fresh < quorum {
			return
		}
		inFlight = true
		c.Eng.After(c.RingAll(), finishRound)
	}

	start = func(w *cluster.Worker) {
		c.Snapshot(w)
		c.Eng.After(c.ComputeTime(w), func() {
			grad, _ := c.Gradient(w)
			cached[w.ID].CopyFrom(grad)
			fresh++
			// Apply only the latest completed aggregate; aggregates of
			// rounds this worker missed are lost to it (replica drift).
			if haveAgg && applied[w.ID] < aggRound {
				w.Opt.Update(w.Params(), lastAgg, 1)
				applied[w.ID] = aggRound
				w.Iter++
			}
			maybeLaunch()
			if !c.Eng.Stopped() {
				start(w)
			}
		})
	}

	for _, w := range c.Workers {
		w := w
		c.Eng.At(0, func() { start(w) })
	}
	c.Eng.Run()
	return c.Finish(), nil
}
