package engine

import (
	"errors"
	"fmt"

	"partialreduce/internal/controller"
	"partialreduce/internal/health"
	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
)

// The controller service core: everything there is to know about serving
// the controller, once, for the simulator and the live runtime alike. It is
// a single-owner state machine in the style of Machine and
// health.Watchdog.Eval — no locks, no goroutines, no clock (timestamps
// arrive as event arguments), no transport. Two adapters turn their world
// into the event methods below and implement the three effects of Sink: the
// simulator's sink (runPReduceSim) as events on the virtual clock, the live
// runtime's (internal/live, worker.go) as control frames. The tests drive
// the core directly, with a sink that records.
//
// The core owns the liveness bookkeeping (who waits for a reply, who is
// inside a dispatched collective, who finished), the elastic schedule
// cursor, and the live runtime's watchdog evaluation; who is a member and who is dead it
// reads from the controller. The adapter owns only the failure detector (the
// live receive loops, the simulator's crash schedule), which reports through
// Lost. The controller lives and dies with the process that hosts it: there
// is one incarnation per run.

// bootOpBase is the first bootstrap-transfer op id: a disjoint space from the
// group ops (which count up from 1), so an op abort can never collide with an
// in-flight bootstrap.
const bootOpBase uint32 = 0x40000000

// Sink is where the core's effects go. An effect cannot fail from the core's
// point of view: an adapter that cannot deliver one (the peer's connection is
// gone) feeds the rank back as a Lost event after the current event returns.
type Sink interface {
	// Reply answers worker w's accepted ready signal seq with d.
	Reply(w int, seq uint64, d Directive)
	// Abort makes member w abandon collective op; dead is the rank whose
	// loss triggered it, -1 for a stuck op that condemns nobody.
	Abort(w int, op uint32, dead int)
	// StartJoin sets parked rank j bootstrapping from donor under op.
	StartJoin(j, donor int, op uint32)
}

// ServiceConfig is what the core reads of a run's configuration.
type ServiceConfig struct {
	N        int                    // rank space
	Elastic  hetero.ElasticSchedule // membership changes, by trigger count
	Watchdog *health.Watchdog       // nil: no evaluation
	Recorder *health.Recorder       // postmortem bundles per new breach (nil: none)
	// Instruments are what the watchdog samples.
	Instruments *metrics.Instruments
}

// ServiceCore serves one controller; see the top of this file.
type ServiceCore struct {
	cfg  ServiceConfig
	ctrl *controller.Controller
	out  Sink
	// err is the first invariant violation or controller error. The core
	// stays consistent past it (the affected signal is released solo); the
	// adapter decides whether the run survives.
	err error

	// Reply bookkeeping. A signal (w, seq) is accepted when seq >= nextSeq[w]
	// and answered exactly once: nextSeq is the control plane's one receive
	// cursor. Workers number every transmission with a Signaler, so a
	// re-send is always above the cursor and a duplicate or stale frame below.
	waiting  []bool
	waitSeq  []uint64
	nextSeq  []uint64
	nWaiting int

	// lastOp[w] is the last group dispatched to w under lastOpID[w]; inOp[w]
	// holds from that dispatch until w's next sign of progress, i.e. while
	// the collective may still be running for it.
	lastOp   []controller.Group
	lastOpID []uint32
	inOp     []bool
	aborted  map[uint32]bool

	completed []bool
	active    int // workers believed alive and not yet finished

	opSeq  uint32
	groups int // groups dispatched

	// Elastic membership. Events trigger on the dispatched-group count —
	// the live host never sees an average land — or, with byUpdates, on the
	// applied-update count the simulator reports through done. The two are
	// identical under lockstep, where every group is one cluster iteration.
	// A join waits in pendingJoins for the next ready signal from an
	// eligible donor; a drain waits in drainPending for the target's own
	// next ready signal, so it always lands between groups, never inside one.
	byUpdates    bool
	nextElastic  int
	pendingJoins []int
	drainPending []bool
	bootOp       uint32
}

// NewServiceCore returns the core serving ctrl, with effects going to out;
// ctrl's founding members are the workers it starts out serving.
func NewServiceCore(cfg ServiceConfig, ctrl *controller.Controller, out Sink) *ServiceCore {
	return &ServiceCore{
		cfg: cfg, ctrl: ctrl, out: out,
		waiting:      make([]bool, cfg.N),
		waitSeq:      make([]uint64, cfg.N),
		nextSeq:      make([]uint64, cfg.N),
		lastOp:       make([]controller.Group, cfg.N),
		lastOpID:     make([]uint32, cfg.N),
		inOp:         make([]bool, cfg.N),
		aborted:      make(map[uint32]bool),
		completed:    make([]bool, cfg.N),
		active:       ctrl.ActiveCount(),
		drainPending: make([]bool, cfg.N),
		bootOp:       bootOpBase,
	}
}

// Ready is worker w's ready signal for iter, sent under world-view epoch at
// controller-clock time now.
func (c *ServiceCore) Ready(w, iter int, seq, epoch uint64, now float64) {
	if seq < c.nextSeq[w] {
		// Stale retransmission: the answer raced the worker's timeout and is
		// already on its way.
		return
	}
	if !c.waiting[w] {
		c.waiting[w] = true
		c.nWaiting++
	}
	c.waitSeq[w] = seq
	c.inOp[w] = false
	switch {
	case !c.ctrl.IsAlive(w):
		// Dead-marked sender: release it to proceed solo.
		c.answer(w, Directive{Skip: true})
	case c.ctrl.IsQueued(w):
		// Retransmission of a signal the controller still holds (the
		// worker's bounded wait expired before its group formed): the reply
		// is re-attached above, nothing is re-queued. The queue is as the
		// last event left it, so no group can form here.
	case c.drainPending[w] && c.eligible(w):
		// The drain lands here, at the worker's own ready point: between
		// groups by construction, so no in-flight collective is torn down and
		// nobody is condemned. Shrinking the active set may let the queue
		// fill a group; retire dispatches those before the hand-off ack.
		c.drainPending[w] = false
		d := Directive{Skip: true}
		if c.retire(w) {
			d = Directive{Drain: true}
		}
		c.answer(w, d)
	case len(c.pendingJoins) > 0 && c.eligible(w):
		c.admit(w)
	default:
		groups, err := c.ctrl.Ready(controller.Signal{Worker: w, Iter: iter, Epoch: epoch, Now: now})
		switch {
		case err == nil:
			c.dispatch(groups)
		case errors.Is(err, controller.ErrStaleEpoch):
			// Outdated world view: deterministic rejection, not condemnation.
			// The worker adopts the epoch from the answer and re-signals.
			c.answer(w, Directive{Refresh: true})
		default:
			// Rejected sender (tracking mismatch): release it solo.
			c.answer(w, Directive{Skip: true})
		}
	}
	c.release()
}

// Finished is worker w announcing it completed all its iterations.
func (c *ServiceCore) Finished(w int) {
	if !c.dead(w) && !c.completed[w] {
		c.completed[w] = true
		c.inOp[w] = false
		c.active--
	}
	c.release()
}

// Death is a survivor's report that dead went down inside collective op.
func (c *ServiceCore) Death(dead int, op uint32) {
	c.markDead(dead, op)
	c.release()
}

// Lost is the adapter's failure detector (or an undeliverable effect)
// declaring w gone with no collective observed failing.
func (c *ServiceCore) Lost(w int) { c.Death(w, 0) }

// Stuck is a report that collective op timed out with no dead peer in sight
// (severed link, partition, delay spike beyond the retry budget): the op is
// aborted for every member so the stuck ones roll back and re-signal. Nobody
// is condemned — a worker that really is gone will be Lost.
func (c *ServiceCore) Stuck(op uint32) {
	if g, ok := c.opGroup(op); ok && !c.aborted[op] {
		c.aborted[op] = true
		groups := c.ctrl.AbortGroup(g, -1)
		c.abortOp(g, op, -1)
		c.dispatch(groups)
	}
	c.release()
}

// JoinAbort is joiner w reporting its bootstrap transfer failed (donor lost
// mid-send). It was admitted at assignment time and will never signal:
// un-join it cleanly — it never trained, so a drain + decommission releases
// its slot without condemning anyone, and the rank goes back to parked.
func (c *ServiceCore) JoinAbort(w int) {
	if c.ctrl.IsMember(w) && !c.ctrl.IsDraining(w) && c.ctrl.IsAlive(w) {
		c.retire(w)
	}
	c.release()
}

// Tick evaluates the watchdog at health-clock time now.
func (c *ServiceCore) Tick(now float64) {
	c.evalWatchdog(now)
	c.release()
}

// Exit is the end of service: one last watchdog evaluation, so a run shorter
// than the adapter's tick cadence still reports ready.
func (c *ServiceCore) Exit(now float64) { c.evalWatchdog(now) }

// done is the simulator's report that op's average landed, the
// updates-th applied cluster-wide. Its members are out of the collective, so
// a later crash is not counted against the group (the live host can only
// guess that from the rank's next signal), and the elastic cursor advances.
func (c *ServiceCore) done(op uint32, updates int) {
	if g, ok := c.opGroup(op); ok {
		for _, m := range g.Members {
			c.inOp[m] = false
		}
	}
	c.checkElastic(updates)
	c.release()
}

// Active is the number of workers believed alive and not yet finished: the
// live host serves until it reaches zero.
func (c *ServiceCore) Active() int { return c.active }

// Err is the first invariant violation or controller error, nil if none.
func (c *ServiceCore) Err() error { return c.err }

// Completed reports, per rank, whether it finished all its iterations.
func (c *ServiceCore) Completed() []bool { return c.completed }

// eligible reports whether w can drain or donate a bootstrap: a member not
// already leaving (the caller has ruled out the dead).
func (c *ServiceCore) eligible(w int) bool { return c.ctrl.IsMember(w) && !c.ctrl.IsDraining(w) }

// Parked reports whether w sits outside the world with nothing more to do:
// never admitted, or drained back out (not finished, not dead).
func (c *ServiceCore) Parked(w int) bool {
	return !c.completed[w] && !c.ctrl.IsMember(w)
}

// dead reports whether member w was condemned: only the core reports
// failures to the controller, and a decommissioned rank is not a member.
func (c *ServiceCore) dead(w int) bool { return c.ctrl.IsMember(w) && !c.ctrl.IsAlive(w) }

func (c *ServiceCore) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// answer delivers d as the one reply to w's pending signal.
func (c *ServiceCore) answer(w int, d Directive) {
	if !c.waiting[w] {
		return
	}
	d.Epoch = c.ctrl.Epoch()
	c.waiting[w] = false
	c.nWaiting--
	c.nextSeq[w] = c.waitSeq[w] + 1
	c.out.Reply(w, c.waitSeq[w], d)
}

func (c *ServiceCore) dispatch(groups []controller.Group) {
	for _, g := range groups {
		c.opSeq++
		c.groups++
		for _, m := range g.Members {
			c.lastOp[m], c.lastOpID[m], c.inOp[m] = g, c.opSeq, true
			if !c.waiting[m] {
				c.fail(fmt.Errorf("engine: controller grouped worker %d with no pending signal", m))
			}
			c.answer(m, Directive{Group: g, OpID: c.opSeq})
		}
	}
	if !c.byUpdates {
		c.checkElastic(c.groups)
	}
}

// checkElastic queues the scheduled membership changes whose trigger count
// has been reached. They are consumed at later ready points, so checking
// once per batch of groups equals checking after each group.
func (c *ServiceCore) checkElastic(count int) {
	for el := c.cfg.Elastic; c.nextElastic < len(el) && el[c.nextElastic].AfterUpdates <= count; c.nextElastic++ {
		switch ev := el[c.nextElastic]; ev.Kind {
		case hetero.ElasticJoin:
			c.pendingJoins = append(c.pendingJoins, ev.Worker)
		case hetero.ElasticDrain:
			c.drainPending[ev.Worker] = true
		}
	}
}

// release ends every event by handling the stranded tail: every still-active
// worker is queued and the controller formed no group for them (fewer than
// the effective group size remain, or the filter is deferring for a bridge
// signal that can no longer arrive). No progress is possible without
// releasing them to proceed solo. Their queued signals are purged so the
// re-signal after the solo step is accepted cleanly.
func (c *ServiceCore) release() {
	if c.nWaiting == 0 || c.nWaiting != c.active {
		return
	}
	for w, waiting := range c.waiting {
		if waiting {
			c.ctrl.PurgeSignal(w)
			c.answer(w, Directive{Skip: true})
		}
	}
}

// opGroup finds the group dispatched under op, if a member still has it as
// its last op (deaths are rare; a scan beats keeping every group ever formed).
func (c *ServiceCore) opGroup(op uint32) (controller.Group, bool) {
	if op != 0 {
		for w, id := range c.lastOpID {
			if id == op {
				return c.lastOp[w], true
			}
		}
	}
	return controller.Group{}, false
}

func (c *ServiceCore) abortOp(g controller.Group, op uint32, dead int) {
	for _, m := range g.Members {
		if m != dead && !c.dead(m) {
			c.out.Abort(m, op, dead)
		}
	}
}

// markDead excludes dead from all future grouping and aborts the collective
// it may be blocking. op is a group op a survivor observed failing; 0 means
// no such observation — the worker went dark, and its last op is aborted as a
// precaution (aborting a completed op is harmless because op ids are never
// reused) but counted as a group abort only if dead was still inside it.
func (c *ServiceCore) markDead(dead int, op uint32) {
	if !c.ctrl.IsMember(dead) || !c.ctrl.IsAlive(dead) {
		// A drained (or never-joined, or out-of-range) rank is not a member:
		// it cannot be condemned. Late death reports against it — a peer
		// observing its clean exit as a transport hiccup — are dropped, as
		// are repeated reports against a member already condemned.
		return
	}
	if !c.completed[dead] {
		c.active--
	}
	c.answer(dead, Directive{Skip: true}) // wakes a falsely-accused worker
	observed := op != 0 || c.inOp[dead]
	if op == 0 {
		op = c.lastOpID[dead]
	}
	var groups []controller.Group
	if g, ok := c.opGroup(op); ok && !c.aborted[op] {
		c.aborted[op] = true
		if observed {
			groups = c.ctrl.AbortGroup(g, dead)
		} else {
			groups = c.ctrl.Fail(dead)
		}
		c.abortOp(g, op, dead)
	} else {
		groups = c.ctrl.Fail(dead)
	}
	c.dispatch(groups)
}

// retire takes member w out of the world gracefully: drain, dispatch what the
// shrunken active set unblocks, decommission. Callers have checked w is a
// live non-draining member, so a controller error here is a tracking bug.
func (c *ServiceCore) retire(w int) bool {
	groups, err := c.ctrl.Drain(w)
	if err == nil {
		c.dispatch(groups)
		groups, err = c.ctrl.Decommission(w)
	}
	if err != nil {
		c.fail(fmt.Errorf("engine: retire worker %d: %w", w, err))
		return false
	}
	c.dispatch(groups)
	c.active--
	return true
}

// admit serves the oldest pending join with donor — a live member at its
// ready point, model state stable. The donor is answered with the bootstrap
// assignment instead of having its signal queued; it re-signals the same
// iteration after serving. The joiner is admitted right now: the epoch bumps
// here, and group formation deterministically waits for the joiner's first
// signal instead of racing its bootstrap.
func (c *ServiceCore) admit(donor int) {
	j := c.pendingJoins[0]
	c.pendingJoins = c.pendingJoins[1:]
	if err := c.ctrl.Join(j); err != nil {
		c.fail(fmt.Errorf("engine: join worker %d: %w", j, err))
		c.answer(donor, Directive{Skip: true})
		return
	}
	c.active++
	c.bootOp++
	c.out.StartJoin(j, donor, c.bootOp)
	c.answer(donor, Directive{Bootstrap: true, BootstrapFor: j, BootstrapOp: c.bootOp})
}

// evalWatchdog runs inside the controller's serialization domain, so its
// sample never races group formation. Capture errors are swallowed: the
// flight recorder is best-effort and must never abort training.
func (c *ServiceCore) evalWatchdog(now float64) {
	cfg := c.cfg
	if cfg.Watchdog == nil {
		return
	}
	breaches := cfg.Watchdog.Eval(now, health.Sample{
		Snap:       cfg.Instruments.Snapshot(),
		QueueDepth: c.ctrl.QueueDepth(),
		Active:     c.active,
	})
	if len(breaches) == 0 {
		return
	}
	st := cfg.Watchdog.State()
	for _, br := range breaches {
		_, _ = cfg.Recorder.Capture(br.Rule.String(), now, []health.Breach{br}, st)
	}
}
