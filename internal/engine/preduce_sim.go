package engine

import (
	"slices"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/health"
	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
	"partialreduce/internal/tensor"
	"partialreduce/internal/trace"
)

// runPReduceSim drives Algorithm 2 on the simulated substrate's event
// engine, with ctrl already wired (tracer, instruments, policy).
//
// When the cell carries a fail-stop schedule (§4), crashes are handled the
// way the paper says the controller makes cheap: a dead worker's queued
// signal is purged, a group caught mid-collective is aborted and its
// survivors re-signal after one controller round trip, and checkpoint
// rejoins re-admit the worker with its crash-time model.
func runPReduceSim(env *SimEnv, ctrl *controller.Controller) (*metrics.Result, error) {
	c := env.C
	agg := tensor.NewVector(len(c.Init))
	paramsBuf := make([]tensor.Vector, 0, c.Cfg.N)
	machine := NewMachine(c.Cfg.N)
	// failed records the error that ends the run and stops the event loop.
	var readyErr error
	failed := func(err error) bool {
		if err != nil {
			readyErr = err
			c.Eng.Stop()
		}
		return err != nil
	}

	// inflight tracks dispatched groups until they complete, so a crash can
	// abort exactly the group the corpse was syncing with. aborted seqs make
	// the already-scheduled completion event a no-op.
	inflight := make(map[uint64]controller.Group)
	aborted := make(map[uint64]bool)
	var seq uint64

	// readyAt[w] is the virtual time of w's outstanding ready signal, the
	// start of its KSignalWait span (closed when its group dispatches).
	readyAt := make([]float64, c.Cfg.N)

	var startCompute func(w *cluster.Worker)
	var dispatch func(groups []controller.Group)

	// Elastic membership: events fire in schedule order once the cluster-wide
	// applied update count reaches their trigger. A join waits in
	// pendingJoins until the next ready signal from an eligible donor, which
	// serves the bootstrap from its own stable ready-point state and then
	// signals as usual; the joiner is admitted at assignment time, so group
	// formation deterministically waits for its first signal. Drains mark
	// the rank so its next ready point becomes a Drain → Decommission
	// hand-off instead of a signal. Both rules are exactly the live
	// runtime's, which is what keeps the sim↔live differential's update
	// counts equal.
	elastic := c.Cfg.Elastic
	nextElastic := 0
	pendingJoins := []int(nil)
	drainPending := make([]bool, c.Cfg.N)
	var checkElastic func()

	onGroupDone := func(id uint64, g controller.Group) {
		if aborted[id] {
			delete(aborted, id)
			return
		}
		delete(inflight, id)
		// Weighted model average (Alg. 2 line 7; §3.3 for dynamic weights).
		paramsBuf = paramsBuf[:0]
		for _, wid := range g.Members {
			paramsBuf = append(paramsBuf, c.Workers[wid].Params())
		}
		GroupAverage(agg, g, paramsBuf, c.Init)
		for _, wid := range g.Members {
			w := c.Workers[wid]
			machine.To(wid, StateApply)
			w.Params().CopyFrom(agg)
			w.Iter = g.Iter // fast-forward (§3.3.3)
		}
		c.RecordUpdate()
		checkElastic()
		for _, wid := range g.Members {
			startCompute(c.Workers[wid])
		}
	}

	var signalReady func(w *cluster.Worker)

	// abortGroup dissolves in-flight group id (dead = -1: nobody is
	// condemned): the survivors roll back (in the simulator the average
	// simply never lands) and re-signal for the same iteration after one
	// controller round trip.
	abortGroup := func(id uint64, g controller.Group, dead int) {
		delete(inflight, id)
		dispatch(ctrl.AbortGroup(g, dead))
		for _, m := range g.Members {
			if m == dead || c.Dead[m] {
				continue
			}
			w := c.Workers[m]
			c.Eng.After(c.Cfg.Net.CtrlRTT, func() {
				if !c.Dead[w.ID] {
					signalReady(w)
				}
			})
		}
	}

	// count records a robustness event in the run's comm stats and mirrors
	// it into the live instruments (when attached), so the watchdog's
	// retry-storm rule sees the same counters in sim and live.
	count := func(cs metrics.CommStats) {
		c.Track.AddComms(cs)
		c.Ins.AddComms(cs)
	}

	// attempt models collective attempt k of group id starting now. An
	// attempt whose members straddle an active partition blocks until the
	// collective timeout fires, then retries after a deterministic backoff —
	// the live runtime's RetryPolicy in virtual time. When the budget is
	// exhausted the controller aborts the op with nobody condemned and every
	// member re-signals after a controller round trip: the same stuck-op
	// path the live service takes for severed links.
	var attempt func(id uint64, g controller.Group, k int)
	attempt = func(id uint64, g controller.Group, k int) {
		if aborted[id] {
			// A crash abort dissolved the group while this attempt was
			// pending; the members have already re-signaled.
			delete(aborted, id)
			return
		}
		ring := env.GroupRing(g.Members)
		if !c.PartitionSplits(g.Members, c.Eng.Now()) {
			// One controller round trip plus a ring all-reduce sized to the
			// group: P-Reduce preserves collective bandwidth utilization
			// while shrinking the synchronization scope (§3.1.1).
			if c.Tracer != nil {
				// The modeled collective: a group-wait span covering the RTT
				// plus the ring, with the two symmetric ring phases ((g−1)
				// steps each) as sub-spans — the sim counterpart of the live
				// runtime's measured KReduceScatter/KAllGather.
				now := c.Eng.Now()
				rtt := c.Cfg.Net.CtrlRTT
				gs := int64(len(g.Members))
				for _, m := range g.Members {
					c.Tracer.SpanAt(trace.KGroupWait, int32(m), int32(g.Iter), now, rtt+ring, int64(id), gs)
					c.Tracer.SpanAt(trace.KReduceScatter, int32(m), int32(g.Iter), now+rtt, ring/2, int64(id), 0)
					c.Tracer.SpanAt(trace.KAllGather, int32(m), int32(g.Iter), now+rtt+float64(ring/2), ring/2, int64(id), 0)
				}
			}
			c.Eng.After(c.Cfg.Net.CtrlRTT+ring, func() { onGroupDone(id, g) })
			return
		}
		rm := c.Cfg.Retry
		timeout := rm.TimeoutOr(c.Cfg.Profile.BatchCompute + ring)
		count(metrics.CommStats{Timeouts: 1})
		c.Tracer.InstantAt(trace.KTimeout, trace.ControllerTrack, int32(g.Iter), c.Eng.Now()+timeout, int64(id), int64(k))
		if k < rm.Attempts() {
			count(metrics.CommStats{Retries: 1})
			c.Tracer.InstantAt(trace.KRetry, trace.ControllerTrack, int32(g.Iter), c.Eng.Now()+timeout+rm.Backoff(k), int64(id), int64(k+1))
			c.Eng.After(timeout+rm.Backoff(k), func() { attempt(id, g, k+1) })
			return
		}
		// Budget exhausted: the members sit through the final timeout, then
		// the group is aborted with nobody condemned.
		count(metrics.CommStats{Aborts: 1})
		c.Tracer.InstantAt(trace.KAbort, trace.ControllerTrack, int32(g.Iter), c.Eng.Now()+timeout, int64(id), 0)
		c.Eng.After(timeout, func() {
			if aborted[id] {
				delete(aborted, id)
				return
			}
			abortGroup(id, g, -1)
		})
	}

	dispatch = func(groups []controller.Group) {
		for _, g := range groups {
			seq++
			id := seq
			inflight[id] = g
			for _, m := range g.Members {
				machine.To(m, StateReduce)
			}
			if c.Tracer != nil {
				// Close each member's signal-wait span: it waited from its
				// ready signal until this dispatch.
				now := c.Eng.Now()
				for i, m := range g.Members {
					c.Tracer.SpanAt(trace.KSignalWait, int32(m), int32(g.Iters[i]), readyAt[m], now-readyAt[m], 0, 0)
				}
			}
			attempt(id, g, 1)
		}
	}

	// serveBootstrap is the donor side of a join, run at the donor's ready
	// point where its model state is stable: capture params/optimizer/iter
	// (BootstrapSend semantics), admit the joiner immediately — the epoch
	// bumps now, and formation waits for its first signal — and schedule the
	// install after the priced transfer. The donor then signals as usual.
	serveBootstrap := func(donor *cluster.Worker, j int) {
		machine.To(j, StateJoining)
		params := donor.Params().Clone()
		vel, step := donor.Opt.State()
		iter := donor.Iter
		c.Tracer.Instant(trace.KBootstrap, int32(j), int32(iter), int64(donor.ID), int64(len(params)))
		if failed(ctrl.Join(j, c.Eng.Now())) {
			return
		}
		dt := env.BootstrapTransfer(donor.ID, j)
		c.Eng.After(dt, func() {
			w := c.Workers[j]
			w.Params().CopyFrom(params)
			if failed(w.Opt.Restore(vel, step)) {
				return
			}
			w.Iter = iter
			c.Revive(j)
			startCompute(w)
		})
	}

	signalReady = func(w *cluster.Worker) {
		machine.To(w.ID, StateReady)
		if drainPending[w.ID] {
			// The drain lands at the rank's next ready point: it hands off
			// instead of signaling, finishes nothing new, and leaves without
			// being counted as a failure. Shrinking the active set can let
			// the queue fill a group, so both steps may dispatch.
			drainPending[w.ID] = false
			machine.To(w.ID, StateDraining)
			groups, err := ctrl.Drain(w.ID)
			if failed(err) {
				return
			}
			dispatch(groups)
			more, err := ctrl.Decommission(w.ID)
			if failed(err) {
				return
			}
			machine.To(w.ID, StateDone)
			// Eval-exclude the departed replica (it left with its model; the
			// cluster's inference average is over current members only).
			c.Kill(w.ID)
			dispatch(more)
			return
		}
		if len(pendingJoins) > 0 && ctrl.IsMember(w.ID) && !ctrl.IsDraining(w.ID) {
			// A join is waiting for a donor and this member just reached its
			// ready point: serve the bootstrap, then fall through — the donor
			// signals the same iteration as usual.
			j := pendingJoins[0]
			pendingJoins = pendingJoins[1:]
			serveBootstrap(w, j)
			if readyErr != nil {
				return
			}
		}
		readyAt[w.ID] = c.Eng.Now()
		groups, err := ctrl.Ready(controller.Signal{Worker: w.ID, Iter: w.Iter, Now: c.Eng.Now(), Epoch: ctrl.Epoch()})
		if failed(err) {
			return
		}
		dispatch(groups)
	}

	onComputeDone := func(w *cluster.Worker) {
		if c.Dead[w.ID] {
			return // the corpse's in-flight batch is lost with it
		}
		grad, _ := c.Gradient(w)
		w.Opt.Update(w.Params(), grad, 1) // local update (Alg. 2 line 4)
		w.Iter++
		signalReady(w)
	}

	startCompute = func(w *cluster.Worker) {
		if c.Dead[w.ID] {
			return
		}
		machine.To(w.ID, StateCompute)
		c.Snapshot(w)
		dt := c.ComputeTime(w)
		c.Tracer.SpanAt(trace.KCompute, int32(w.ID), int32(w.Iter), c.Eng.Now(), dt, 0, 0)
		c.Eng.After(dt, func() { onComputeDone(w) })
	}

	checkElastic = func() {
		for nextElastic < len(elastic) && elastic[nextElastic].AfterUpdates <= c.Updates() {
			e := elastic[nextElastic]
			nextElastic++
			if e.Kind == hetero.ElasticJoin {
				pendingJoins = append(pendingJoins, e.Worker)
			} else {
				drainPending[e.Worker] = true
			}
		}
	}

	onCrash := func(dead int) {
		machine.Kill(dead)
		// If the corpse was mid-collective, abort that group; the aborted
		// mark makes its already-scheduled completion a no-op.
		for id, g := range inflight {
			if slices.Contains(g.Members, dead) {
				aborted[id] = true
				abortGroup(id, g, dead)
				return
			}
		}
		// Otherwise the worker was computing (its batch is discarded at
		// onComputeDone) or queued (Fail purges the signal). Shrinking the
		// surviving count can let the existing queue fill a group.
		dispatch(ctrl.Fail(dead))
	}

	onRejoin := func(w int) {
		// Checkpoint restart: the replica resumes from its crash-time
		// parameters and iteration count (the state the checkpoint froze).
		if failed(ctrl.Rejoin(w)) {
			return
		}
		startCompute(c.Workers[w])
	}

	c.ScheduleCrashes(onCrash, onRejoin)

	// The watchdog ticks on the virtual clock, evaluated inside the event
	// loop (the controller's serialization domain), so a same-seed replay
	// fires the same rules at the same virtual times and captures
	// byte-identical bundles. The tick reschedules itself only while other
	// events remain pending — a recurring event must not keep the queue
	// alive after the run drains.
	if c.Health != nil {
		every := c.HealthEvery
		if every <= 0 {
			every = 1.0
		}
		var tick func()
		tick = func() {
			now := c.Eng.Now()
			breaches := c.Health.Eval(now, health.Sample{
				Snap:       c.Ins.Snapshot(),
				QueueDepth: ctrl.QueueDepth(),
				Active:     c.AliveCount(),
			})
			if len(breaches) > 0 && c.Recorder != nil {
				st := c.Health.State()
				for _, br := range breaches {
					if _, err := c.Recorder.Capture(br.Rule.String(), now, []health.Breach{br}, st); failed(err) {
						return
					}
				}
			}
			if c.Eng.Pending() > 0 {
				c.Eng.After(every, tick)
			}
		}
		c.Eng.After(every, tick)
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
