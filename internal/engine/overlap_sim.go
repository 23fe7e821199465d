package engine

import (
	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/metrics"
	"partialreduce/internal/tensor"
)

// overlapState tracks one worker's pipelining: whether a group reply is
// outstanding and whether a finished gradient is parked waiting for it.
type overlapState struct {
	waitingGroup bool
	stashed      tensor.Vector // finished gradient awaiting the group, nil if none
	stashBuf     tensor.Vector // storage backing stashed
}

// runOverlappedSim drives Algorithm 2 with communication/computation
// overlapping (the DDP-style pipelining §4 leaves as future work): each
// worker launches its next batch the moment it signals ready, so the group's
// collective and the batch run concurrently. The next local update applies a
// gradient taken at the pre-aggregation snapshot — the bounded inconsistency
// DDP-style pipelining accepts in exchange for hiding communication time.
//
// This driver deliberately does not carry the step Machine: pipelining is
// the one execution mode whose whole point is violating the sequential step
// order (a worker is in compute and reduce at once), so the invariant
// checker would only encode false positives here.
func runOverlappedSim(env *SimEnv, ctrl *controller.Controller) (*metrics.Result, error) {
	c := env.C
	agg := tensor.NewVector(len(c.Init))
	paramsBuf := make([]tensor.Vector, 0, c.Cfg.N)
	states := make([]overlapState, len(c.Workers))
	for i := range states {
		states[i].stashBuf = tensor.NewVector(len(c.Init))
	}
	var readyErr error

	var startCompute func(w *cluster.Worker)
	var applyAndSignal func(w *cluster.Worker, grad tensor.Vector)

	onGroupDone := func(g controller.Group) {
		paramsBuf = paramsBuf[:0]
		for _, wid := range g.Members {
			paramsBuf = append(paramsBuf, c.Workers[wid].Params())
		}
		GroupAverage(agg, g, paramsBuf, c.Init)
		for _, wid := range g.Members {
			w := c.Workers[wid]
			w.Params().CopyFrom(agg)
			w.Iter = g.Iter
		}
		c.RecordUpdate()
		if c.Eng.Stopped() {
			return
		}
		for _, wid := range g.Members {
			w := c.Workers[wid]
			st := &states[wid]
			st.waitingGroup = false
			if st.stashed != nil {
				// The overlapped batch finished before the group: release it
				// now, on top of the aggregated model.
				grad := st.stashed
				st.stashed = nil
				applyAndSignal(w, grad)
			}
		}
	}

	applyAndSignal = func(w *cluster.Worker, grad tensor.Vector) {
		w.Opt.Update(w.Params(), grad, 1)
		w.Iter++
		st := &states[w.ID]
		groups, err := ctrl.Ready(controller.Signal{Worker: w.ID, Iter: w.Iter})
		if err != nil {
			readyErr = err
			c.Eng.Stop()
			return
		}
		st.waitingGroup = true
		// Pipelining: the next batch starts immediately, concurrent with the
		// group collective.
		startCompute(w)
		for _, g := range groups {
			ring := env.GroupRing(g.Members)
			c.Eng.After(c.Cfg.Net.CtrlRTT+ring, func() { onGroupDone(g) })
		}
	}

	onComputeDone := func(w *cluster.Worker) {
		grad, _ := c.Gradient(w)
		st := &states[w.ID]
		if st.waitingGroup {
			// Group still in flight: park the gradient until it lands.
			st.stashBuf.CopyFrom(grad)
			st.stashed = st.stashBuf
			return
		}
		applyAndSignal(w, grad)
	}

	startCompute = func(w *cluster.Worker) {
		c.Snapshot(w)
		c.Eng.After(c.ComputeTime(w), func() { onComputeDone(w) })
	}

	for _, w := range c.Workers {
		c.Eng.At(0, func() { startCompute(w) })
	}
	c.Eng.Run()
	if readyErr != nil {
		return nil, readyErr
	}
	return c.Finish(), nil
}
