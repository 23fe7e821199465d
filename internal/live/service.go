package live

import (
	"errors"
	"fmt"

	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
	"partialreduce/internal/health"
	"partialreduce/internal/hetero"
)

// The controller service core: everything the live runtime knows about
// serving the controller, once. It is a single-owner state machine in the
// style of engine.Machine and health.Watchdog.Eval — no locks, no
// goroutines, no clock (timestamps arrive as event arguments), no
// transport. Its adapter (worker.go) turns control frames into the event
// methods below and implements the three effects of sink as frames back; the
// tests drive the core directly, with a sink that records.
//
// The core owns the liveness bookkeeping (who waits for a reply, who is
// inside a dispatched collective, who is dead, drained or finished), the
// elastic schedule cursor, and the watchdog evaluation. The adapter owns only
// the failure detector (its receive loops), which reports through Lost. The
// controller lives and dies with the process that hosts it: there is one
// incarnation per run.

// bootOpBase is the first bootstrap-transfer op id: a disjoint space from the
// group ops (which count up from 1), so an op abort can never collide with an
// in-flight bootstrap.
const bootOpBase uint32 = 0x40000000

// sink is where the core's effects go. An effect cannot fail from the core's
// point of view: an adapter that cannot deliver one (the peer's connection is
// gone) feeds the rank back as a Lost event after the current event returns.
type sink interface {
	// reply answers worker w's accepted ready signal seq with d.
	reply(w int, seq uint64, d engine.Directive)
	// abort makes member w abandon collective op; dead is the rank whose
	// loss triggered it, -1 for a stuck op that condemns nobody.
	abort(w int, op uint32, dead int)
	// startJoin sets parked rank j bootstrapping from donor under op.
	startJoin(j, donor int, op uint32)
}

type svcCore struct {
	cfg  Config
	ctrl *controller.Controller
	out  sink
	// err is the first invariant violation or controller error. The core
	// stays consistent past it (the affected signal is released solo); the
	// adapter decides whether the run survives.
	err error

	// Reply bookkeeping. A signal (w, seq) is accepted when seq >= nextSeq[w]
	// and answered exactly once; how seq is numbered is the adapter's
	// business, as long as a worker's fresh signals count up.
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

	// deadSet is the service-side memory of detected deaths.
	deadSet   []bool
	completed []bool
	active    int // workers believed alive and not yet finished

	opSeq  uint32
	groups int // groups dispatched: the elastic trigger

	// Elastic membership. Events trigger on the dispatched-group count, the
	// live counterpart of the simulator's applied-update counter (identical
	// under lockstep, where every group is one cluster iteration). A join
	// waits in pendingJoins for the next ready signal from an eligible donor;
	// a drain waits in drainPending for the target's own next ready signal,
	// so it always lands between groups, never inside one.
	nextElastic  int
	pendingJoins []int
	drainPending []bool
	drained      []bool
	bootOp       uint32
}

func newSvcCore(cfg Config, ctrl *controller.Controller, out sink) *svcCore {
	return &svcCore{
		cfg: cfg, ctrl: ctrl, out: out,
		waiting:      make([]bool, cfg.N),
		waitSeq:      make([]uint64, cfg.N),
		nextSeq:      make([]uint64, cfg.N),
		lastOp:       make([]controller.Group, cfg.N),
		lastOpID:     make([]uint32, cfg.N),
		inOp:         make([]bool, cfg.N),
		aborted:      make(map[uint32]bool),
		deadSet:      make([]bool, cfg.N),
		completed:    make([]bool, cfg.N),
		active:       cfg.initialOr(),
		drainPending: make([]bool, cfg.N),
		drained:      make([]bool, cfg.N),
		bootOp:       bootOpBase,
	}
}

// Ready is worker w's ready signal for iter, sent under world-view epoch at
// controller-clock time now.
func (c *svcCore) Ready(w, iter int, seq, epoch uint64, now float64) {
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
	case c.deadSet[w] || !c.ctrl.IsAlive(w):
		// Dead-marked sender: release it to proceed solo.
		c.answer(w, engine.Directive{Skip: true})
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
		d := engine.Directive{Skip: true}
		if c.retire(w) {
			d = engine.Directive{Drain: true}
		}
		c.answer(w, d)
	case len(c.pendingJoins) > 0 && c.eligible(w):
		c.admit(w, now)
	default:
		groups, err := c.ctrl.Ready(controller.Signal{Worker: w, Iter: iter, Epoch: epoch, Now: now})
		switch {
		case err == nil:
			c.dispatch(groups)
		case errors.Is(err, controller.ErrStaleEpoch):
			// Outdated world view: deterministic rejection, not condemnation.
			// The worker adopts the epoch from the answer and re-signals.
			c.answer(w, engine.Directive{Refresh: true})
		default:
			// Rejected sender (tracking mismatch): release it solo.
			c.answer(w, engine.Directive{Skip: true})
		}
	}
	c.release()
}

// Finished is worker w announcing it completed all its iterations.
func (c *svcCore) Finished(w int) {
	if !c.deadSet[w] && !c.completed[w] {
		c.completed[w] = true
		c.inOp[w] = false
		c.active--
	}
	c.release()
}

// Death is a survivor's report that dead went down inside collective op.
func (c *svcCore) Death(dead int, op uint32) {
	c.markDead(dead, op)
	c.release()
}

// Lost is the adapter's failure detector (or an undeliverable effect)
// declaring w gone with no collective observed failing.
func (c *svcCore) Lost(w int) { c.Death(w, 0) }

// Stuck is a report that collective op timed out with no dead peer in sight
// (severed link, partition, delay spike beyond the retry budget): the op is
// aborted for every member so the stuck ones roll back and re-signal. Nobody
// is condemned — a worker that really is gone will be Lost.
func (c *svcCore) Stuck(op uint32) {
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
func (c *svcCore) JoinAbort(w int) {
	if c.ctrl.IsMember(w) && !c.ctrl.IsDraining(w) && c.ctrl.IsAlive(w) {
		c.retire(w)
	}
	c.release()
}

// Tick evaluates the watchdog at health-clock time now.
func (c *svcCore) Tick(now float64) {
	c.evalWatchdog(now)
	c.release()
}

// Exit is the end of service: one last watchdog evaluation, so a run shorter
// than the adapter's tick cadence still reports ready.
func (c *svcCore) Exit(now float64) { c.evalWatchdog(now) }

// eligible reports whether w can drain or donate a bootstrap: a member not
// already leaving (the caller has ruled out the dead).
func (c *svcCore) eligible(w int) bool { return c.ctrl.IsMember(w) && !c.ctrl.IsDraining(w) }

// parked reports whether w sits outside the world with nothing more to do:
// never admitted, or drained back out (not finished, not dead).
func (c *svcCore) parked(w int) bool {
	return !c.completed[w] && !c.deadSet[w] && !c.ctrl.IsMember(w)
}

func (c *svcCore) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// answer delivers d as the one reply to w's pending signal.
func (c *svcCore) answer(w int, d engine.Directive) {
	if !c.waiting[w] {
		return
	}
	d.Epoch = c.ctrl.Epoch()
	c.waiting[w] = false
	c.nWaiting--
	c.nextSeq[w] = c.waitSeq[w] + 1
	c.out.reply(w, c.waitSeq[w], d)
}

func (c *svcCore) dispatch(groups []controller.Group) {
	for _, g := range groups {
		c.opSeq++
		c.groups++
		for _, m := range g.Members {
			c.lastOp[m], c.lastOpID[m], c.inOp[m] = g, c.opSeq, true
			if !c.waiting[m] {
				c.fail(fmt.Errorf("live: controller grouped worker %d with no pending signal", m))
			}
			c.answer(m, engine.Directive{Group: g, OpID: c.opSeq})
		}
	}
	c.checkElastic()
}

// checkElastic queues the scheduled membership changes whose trigger count
// has been dispatched. They are consumed at later ready points, so checking
// once per batch of groups equals checking after each group.
func (c *svcCore) checkElastic() {
	for el := c.cfg.Elastic; c.nextElastic < len(el) && el[c.nextElastic].AfterUpdates <= c.groups; c.nextElastic++ {
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
func (c *svcCore) release() {
	if c.nWaiting == 0 || c.nWaiting != c.active {
		return
	}
	for w, waiting := range c.waiting {
		if waiting {
			c.ctrl.PurgeSignal(w)
			c.answer(w, engine.Directive{Skip: true})
		}
	}
}

// opGroup finds the group dispatched under op, if a member still has it as
// its last op (deaths are rare; a scan beats keeping every group ever formed).
func (c *svcCore) opGroup(op uint32) (controller.Group, bool) {
	if op != 0 {
		for w, id := range c.lastOpID {
			if id == op {
				return c.lastOp[w], true
			}
		}
	}
	return controller.Group{}, false
}

func (c *svcCore) abortOp(g controller.Group, op uint32, dead int) {
	for _, m := range g.Members {
		if m != dead && !c.deadSet[m] {
			c.out.abort(m, op, dead)
		}
	}
}

// markDead excludes dead from all future grouping and aborts the collective
// it may be blocking. op is a group op a survivor observed failing; 0 means
// no such observation — the worker went dark, and its last op is aborted as a
// precaution (aborting a completed op is harmless because op ids are never
// reused) but counted as a group abort only if dead was still inside it.
func (c *svcCore) markDead(dead int, op uint32) {
	if !c.ctrl.IsMember(dead) || c.drained[dead] {
		// A drained (or never-joined, or out-of-range) rank is not a member:
		// it cannot be condemned. Late death reports against it — a peer
		// observing its clean exit as a transport hiccup — are dropped.
		return
	}
	first := !c.deadSet[dead]
	if !first && !c.ctrl.IsAlive(dead) {
		return
	}
	if first {
		c.deadSet[dead] = true
		if !c.completed[dead] {
			c.active--
		}
		c.answer(dead, engine.Directive{Skip: true}) // wakes a falsely-accused worker
	}
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
func (c *svcCore) retire(w int) bool {
	groups, err := c.ctrl.Drain(w)
	if err == nil {
		c.dispatch(groups)
		groups, err = c.ctrl.Decommission(w)
	}
	if err != nil {
		c.fail(fmt.Errorf("live: retire worker %d: %w", w, err))
		return false
	}
	c.dispatch(groups)
	c.drained[w] = true
	c.active--
	return true
}

// admit serves the oldest pending join with donor — a live member at its
// ready point, model state stable. The donor is answered with the bootstrap
// assignment instead of having its signal queued; it re-signals the same
// iteration after serving. The joiner is admitted right now: the epoch bumps
// here, and group formation deterministically waits for the joiner's first
// signal instead of racing its bootstrap (the same rule the simulator
// applies, which keeps the sim↔live differential's update counts equal).
func (c *svcCore) admit(donor int, now float64) {
	j := c.pendingJoins[0]
	c.pendingJoins = c.pendingJoins[1:]
	if err := c.ctrl.Join(j, now); err != nil {
		c.fail(fmt.Errorf("live: join worker %d: %w", j, err))
		c.answer(donor, engine.Directive{Skip: true})
		return
	}
	c.drained[j], c.deadSet[j] = false, false
	c.active++
	c.bootOp++
	c.out.startJoin(j, donor, c.bootOp)
	c.answer(donor, engine.Directive{Bootstrap: true, BootstrapFor: j, BootstrapOp: c.bootOp})
}

// evalWatchdog runs inside the controller's serialization domain, so its
// sample never races group formation. Capture errors are swallowed: the
// flight recorder is best-effort and must never abort training.
func (c *svcCore) evalWatchdog(now float64) {
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
