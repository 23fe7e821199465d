package engine

import (
	"slices"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/metrics"
	"partialreduce/internal/tensor"
	"partialreduce/internal/trace"
)

// simSink hands the core's effects to the simulator's closures.
type simSink struct {
	reply     func(w int, d Directive)
	abort     func(w int, op uint32)
	startJoin func(j, donor int)
}

func (s simSink) Reply(w int, _ uint64, d Directive) { s.reply(w, d) }
func (s simSink) Abort(w int, op uint32, _ int)      { s.abort(w, op) }
func (s simSink) StartJoin(j, donor int, _ uint32)   { s.startJoin(j, donor) }

// runPReduceSim drives Algorithm 2 on the simulated substrate's event
// engine, with ctrl already wired (tracer, instruments, policy). The
// controller is served by the same core as the live runtime's
// (ServiceCore): ready signals, crashes (§4), checkpoint rejoins, elastic
// joins and drains, stuck ops and watchdog ticks are its events, and this
// driver models only the data plane — compute, the group collective with
// its partition retries, the average, and the bootstrap transfer. observe,
// when set, wraps the sim sink and is called after every core event: how the
// invariant tests watch the service a seeded run drives.
//
// With overlap the driver pipelines communication behind computation (the
// DDP-style overlap §4 leaves as future work): a worker starts its next batch
// the moment it signals ready, so the group's collective and the batch run
// concurrently. A batch that finishes while its worker's group is still in
// flight is parked, and applied on top of the average when the group lands —
// a gradient taken at the pre-aggregation snapshot, the bounded inconsistency
// DDP-style pipelining accepts for hidden communication time. A pipelined
// worker computes and reduces at once, so that mode runs without the step
// Machine; RunDetailed keeps faults, membership changes and the watchdog out
// of it.
func runPReduceSim(env *SimEnv, ctrl *controller.Controller, overlap bool, observe func(*ServiceCore, Sink) (Sink, func())) (*metrics.Result, error) {
	c := env.C
	agg := tensor.NewVector(len(c.Init))
	paramsBuf := make([]tensor.Vector, 0, c.Cfg.N)
	var machine *Machine
	// Pipelining state: waiting[w] while w's signal awaits its group landing,
	// parked[w] while a finished gradient (in parkBuf[w]) waits behind it.
	var waiting, parked []bool
	var parkBuf []tensor.Vector
	if overlap {
		waiting, parked = make([]bool, c.Cfg.N), make([]bool, c.Cfg.N)
		parkBuf = make([]tensor.Vector, c.Cfg.N)
		for w := range parkBuf {
			parkBuf[w] = tensor.NewVector(len(c.Init))
		}
	} else {
		machine = NewMachine(c.Cfg.N)
	}
	// failed records the error that ends the run and stops the event loop.
	var readyErr error
	failed := func(err error) bool {
		if err != nil {
			readyErr = err
			c.Eng.Stop()
		}
		return err != nil
	}

	// opOf[w] is the op w reduces in (0: none): an abort of an op w already
	// left is ignored, and an op is in flight while a member is still in it.
	opOf := make([]uint32, c.Cfg.N)
	// seq numbers each worker's ready signals for the core; readyAt[w] is
	// the virtual time of w's outstanding one, the start of its
	// KSignalWait span (closed when its group dispatches).
	seq := make([]uint64, c.Cfg.N)
	readyAt := make([]float64, c.Cfg.N)

	after := func() {}
	var (
		core         *ServiceCore
		startCompute func(w *cluster.Worker)
		step         func(w *cluster.Worker, grad tensor.Vector)
		signal       func(w *cluster.Worker)
		attempt      func(op uint32, g controller.Group, k int)
	)
	// Effects that act once the core event has returned: aborted survivors
	// re-signal after one controller round trip (in the simulator the
	// average simply never lands), a donor re-signals at once.
	var rollback []int
	resend := -1
	serve := func(event func()) {
		event()
		after()
		if failed(core.Err()) {
			return
		}
		for _, w := range rollback {
			c.Eng.After(c.Cfg.Net.CtrlRTT, func() {
				if !c.Dead[w] {
					machine.To(w, StateReady)
					signal(c.Workers[w])
				}
			})
		}
		rollback = rollback[:0]
		if w := resend; w >= 0 {
			resend = -1
			signal(c.Workers[w])
		}
	}

	// release ends pipelined w's wait for its group: a batch that finished
	// meanwhile is applied now, on top of the average.
	release := func(w int) {
		waiting[w] = false
		if parked[w] && !c.Eng.Stopped() {
			parked[w] = false
			step(c.Workers[w], parkBuf[w])
		}
	}

	onGroupDone := func(op uint32, g controller.Group) {
		if !slices.Contains(opOf, op) {
			return // aborted while the collective ran
		}
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
			opOf[wid] = 0
		}
		c.RecordUpdate()
		serve(func() { core.done(op, c.Updates()) })
		for _, wid := range g.Members {
			if overlap {
				release(wid)
			} else {
				startCompute(c.Workers[wid])
			}
		}
	}

	// count records a robustness event in the run's comm stats and mirrors
	// it into the live instruments (when attached), so the watchdog's
	// retry-storm rule sees the same counters in sim and live.
	count := func(cs metrics.CommStats) {
		c.Track.AddComms(cs)
		c.Ins.AddComms(cs)
	}

	// attempt models collective attempt k of group op starting now. An
	// attempt whose members straddle an active partition blocks until the
	// collective timeout fires, then retries after a deterministic backoff —
	// the live runtime's RetryPolicy in virtual time. When the budget is
	// exhausted the members report the op stuck, as live members do.
	attempt = func(op uint32, g controller.Group, k int) {
		if !slices.Contains(opOf, op) {
			// A crash abort dissolved the group while this attempt was
			// pending; the members have already re-signaled.
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
					c.Tracer.SpanAt(trace.KGroupWait, int32(m), int32(g.Iter), now, rtt+ring, int64(op), gs)
					c.Tracer.SpanAt(trace.KReduceScatter, int32(m), int32(g.Iter), now+rtt, ring/2, int64(op), 0)
					c.Tracer.SpanAt(trace.KAllGather, int32(m), int32(g.Iter), now+rtt+float64(ring/2), ring/2, int64(op), 0)
				}
			}
			c.Eng.After(c.Cfg.Net.CtrlRTT+ring, func() { onGroupDone(op, g) })
			return
		}
		rm := c.Cfg.Retry
		timeout := rm.TimeoutOr(c.Cfg.Profile.BatchCompute + ring)
		count(metrics.CommStats{Timeouts: 1})
		c.Tracer.InstantAt(trace.KTimeout, trace.ControllerTrack, int32(g.Iter), c.Eng.Now()+timeout, int64(op), int64(k))
		if k < rm.Attempts() {
			count(metrics.CommStats{Retries: 1})
			c.Tracer.InstantAt(trace.KRetry, trace.ControllerTrack, int32(g.Iter), c.Eng.Now()+timeout+rm.Backoff(k), int64(op), int64(k+1))
			c.Eng.After(timeout+rm.Backoff(k), func() { attempt(op, g, k+1) })
			return
		}
		// Budget exhausted: the members sit through the final timeout, then
		// report the op stuck; the core aborts it with nobody condemned.
		count(metrics.CommStats{Aborts: 1})
		c.Tracer.InstantAt(trace.KAbort, trace.ControllerTrack, int32(g.Iter), c.Eng.Now()+timeout, int64(op), 0)
		c.Eng.After(timeout, func() {
			if slices.Contains(opOf, op) {
				serve(func() { core.Stuck(op) })
			}
		})
	}

	// serveBootstrap is the donor side of a join, run at the donor's ready
	// point where its model state is stable: capture params/optimizer/iter
	// (BootstrapSend semantics) and schedule the install after the priced
	// transfer. The core has admitted the joiner already.
	serveBootstrap := func(j, donor int) {
		machine.To(j, StateJoining)
		d := c.Workers[donor]
		params := d.Params().Clone()
		vel, step := d.Opt.State()
		iter := d.Iter
		c.Tracer.Instant(trace.KBootstrap, int32(j), int32(iter), int64(donor), int64(len(params)))
		dt := env.BootstrapTransfer(donor, j)
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

	// reply acts on the core's answer to w's signal. The core answers a
	// group's members in order, so the last one starts the modelled attempt.
	reply := func(w int, d Directive) {
		if c.Dead[w] {
			return
		}
		switch g := d.Group; {
		case len(g.Members) > 0:
			if w != g.Members[len(g.Members)-1] {
				return
			}
			for _, m := range g.Members {
				machine.To(m, StateReduce)
				opOf[m] = d.OpID
			}
			if c.Tracer != nil {
				// Close each member's signal-wait span: it waited from its
				// ready signal until this dispatch.
				now := c.Eng.Now()
				for i, m := range g.Members {
					c.Tracer.SpanAt(trace.KSignalWait, int32(m), int32(g.Iters[i]), readyAt[m], now-readyAt[m], 0, 0)
				}
			}
			attempt(d.OpID, g, 1)
		case d.Drain:
			// The hand-off is complete: the rank leaves with its model, and
			// the cluster's inference average is over current members only.
			machine.To(w, StateDraining)
			machine.To(w, StateDone)
			c.Kill(w)
		case d.Bootstrap:
			resend = w // re-signal the same iteration once the event returns
		case d.Skip && overlap:
			release(w) // proceed unaveraged; the next batch already runs
		case d.Skip:
			startCompute(c.Workers[w]) // proceed unaveraged
		}
	}
	abort := func(w int, op uint32) {
		if opOf[w] == op {
			opOf[w] = 0
			rollback = append(rollback, w)
		}
	}
	var out Sink = simSink{reply: reply, abort: abort, startJoin: serveBootstrap}
	core = NewServiceCore(ServiceConfig{
		N: c.Cfg.N, Elastic: c.Cfg.Elastic,
		Watchdog: c.Health, Recorder: c.Recorder, Instruments: c.Ins,
	}, ctrl, nil)
	core.byUpdates = true
	if observe != nil {
		out, after = observe(core, out)
	}
	core.out = out

	signal = func(w *cluster.Worker) {
		readyAt[w.ID] = c.Eng.Now()
		seq[w.ID]++
		serve(func() { core.Ready(w.ID, w.Iter, seq[w.ID], ctrl.Epoch(), c.Eng.Now()) })
	}

	step = func(w *cluster.Worker, grad tensor.Vector) {
		w.Opt.Update(w.Params(), grad, 1) // local update (Alg. 2 line 4)
		w.Iter++
		machine.To(w.ID, StateReady)
		if overlap {
			// The next batch starts before the signal, concurrent with the
			// group collective the signal may dispatch.
			waiting[w.ID] = true
			startCompute(w)
		}
		signal(w)
	}

	onComputeDone := func(w *cluster.Worker) {
		if c.Dead[w.ID] {
			return // the corpse's in-flight batch is lost with it
		}
		grad, _ := c.Gradient(w)
		if overlap && waiting[w.ID] {
			// The group is still in flight: park the gradient until it lands.
			parkBuf[w.ID].CopyFrom(grad)
			parked[w.ID] = true
			return
		}
		step(w, grad)
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

	c.ScheduleCrashes(func(dead int) {
		machine.Kill(dead)
		opOf[dead] = 0
		serve(func() { core.Lost(dead) })
	}, func(w int) {
		// Checkpoint restart: the replica resumes from its crash-time
		// parameters and iteration count (the state the checkpoint froze).
		serve(func() { core.rejoin(w) })
		startCompute(c.Workers[w])
	})

	// The watchdog ticks on the virtual clock, evaluated by the core inside
	// the event loop, so a same-seed replay fires the same rules at the same
	// virtual times and captures byte-identical bundles. The tick
	// reschedules itself only while other events remain pending — a
	// recurring event must not keep the queue alive after the run drains.
	if c.Health != nil {
		every := c.HealthEvery
		if every <= 0 {
			every = 1.0
		}
		var tick func()
		tick = func() {
			serve(func() { core.Tick(c.Eng.Now()) })
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
