package engine

import (
	"fmt"
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/health"
	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
	"partialreduce/internal/testutil"
	"partialreduce/internal/trace"
)

// The service core is driven here step by step: no goroutines, no
// transport, no clock. coreHarness plays both adapter and cluster — it
// numbers signals, records effects, and after every event re-checks the two
// safety invariants: no accepted signal is answered twice, and no rank is a
// member of two undissolved groups. Wrapped around the simulator's sink
// (next), it checks the same on the events a seeded run drives.

type effect struct {
	kind  string // "reply", "abort", "join"
	w     int
	d     Directive // reply
	op    uint32    // abort, join
	other int       // abort: dead; join: donor
}

type coreHarness struct {
	t       *testing.T
	c       *ServiceCore
	next    Sink // the wrapped sink, nil when the harness is the cluster
	seq     []uint64
	now     float64
	effects []effect
	replied map[[2]uint64]bool
	// inGroup[w] is the op of the group w was dispatched into and has not
	// left yet (by signaling again, finishing, being aborted out, or dying).
	inGroup []uint32
}

func newCoreHarness(t *testing.T, cfg coreTestConfig) *coreHarness {
	t.Helper()
	ctrl, err := newController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &coreHarness{t: t, seq: make([]uint64, cfg.N), replied: map[[2]uint64]bool{}, inGroup: make([]uint32, cfg.N)}
	h.c = NewServiceCore(cfg.ServiceConfig, ctrl, h)
	return h
}

func (h *coreHarness) Reply(w int, seq uint64, d Directive) {
	key := [2]uint64{uint64(w), seq}
	if h.replied[key] {
		h.t.Errorf("signal (worker %d, seq %d) answered twice", w, seq)
	}
	h.replied[key] = true
	if len(d.Group.Members) > 0 {
		if h.inGroup[w] != 0 {
			h.t.Errorf("worker %d dispatched into op %d while still in op %d", w, d.OpID, h.inGroup[w])
		}
		h.inGroup[w] = d.OpID
	}
	h.effects = append(h.effects, effect{kind: "reply", w: w, d: d})
	if h.next != nil {
		h.next.Reply(w, seq, d)
	}
}

func (h *coreHarness) Abort(w int, op uint32, dead int) {
	if h.inGroup[w] == op {
		h.inGroup[w] = 0
	}
	h.effects = append(h.effects, effect{kind: "abort", w: w, op: op, other: dead})
	if h.next != nil {
		h.next.Abort(w, op, dead)
	}
}

func (h *coreHarness) StartJoin(j, donor int, op uint32) {
	h.effects = append(h.effects, effect{kind: "join", w: j, op: op, other: donor})
	if h.next != nil {
		h.next.StartJoin(j, donor, op)
	}
}

// after is the per-event check: core-level sanity on top of what the sink
// methods verify as effects arrive.
func (h *coreHarness) after() {
	h.t.Helper()
	c := h.c
	if c.err != nil {
		h.t.Fatalf("core error: %v", c.err)
	}
	waiting := 0
	for _, w := range c.waiting {
		if w {
			waiting++
		}
	}
	if waiting != c.nWaiting || c.active < 0 || c.active > c.cfg.N {
		h.t.Fatalf("bookkeeping drift: %d waiting flags vs nWaiting=%d, active=%d", waiting, c.nWaiting, c.active)
	}
	h.now += 0.001
}

// take returns and clears the effects recorded so far.
func (h *coreHarness) take() []effect {
	e := h.effects
	h.effects = nil
	return e
}

func (h *coreHarness) ready(w, iter int) {
	h.t.Helper()
	h.seq[w]++
	h.inGroup[w] = 0
	h.c.Ready(w, iter, h.seq[w], 0, h.now)
	h.after()
}

// resend retransmits w's last signal (same seq), as a timed-out worker does.
func (h *coreHarness) resend(w, iter int) {
	h.t.Helper()
	h.c.Ready(w, iter, h.seq[w], 0, h.now)
	h.after()
}

// retransmit is w's re-send under the next seq after its bounded wait
// expired: w never saw an answer, but the core may already have dispatched
// it, so its group membership is left as it is.
func (h *coreHarness) retransmit(w, iter int) {
	h.t.Helper()
	h.seq[w]++
	h.c.Ready(w, iter, h.seq[w], 0, h.now)
	h.after()
}

func (h *coreHarness) finished(w int) { h.inGroup[w] = 0; h.c.Finished(w); h.after() }
func (h *coreHarness) death(dead int, op uint32) {
	h.inGroup[dead] = 0
	h.c.Death(dead, op)
	h.after()
}
func (h *coreHarness) lost(w int)      { h.inGroup[w] = 0; h.c.Lost(w); h.after() }
func (h *coreHarness) stuck(op uint32) { h.c.Stuck(op); h.after() }
func (h *coreHarness) joinAbort(w int) { h.c.JoinAbort(w); h.after() }

// groupReplies extracts the group directives among effects, keyed by worker.
func groupReplies(t *testing.T, effects []effect) map[int]Directive {
	t.Helper()
	out := map[int]Directive{}
	for _, e := range effects {
		if e.kind == "reply" && len(e.d.Group.Members) > 0 {
			if _, dup := out[e.w]; dup {
				t.Fatalf("worker %d got two group replies in one step: %+v", e.w, effects)
			}
			out[e.w] = e.d
		}
	}
	return out
}

func describe(effects []effect) string {
	s := ""
	for _, e := range effects {
		switch e.kind {
		case "reply":
			s += fmt.Sprintf(" reply(%d: skip=%t drain=%t refresh=%t boot=%t members=%v)", e.w, e.d.Skip, e.d.Drain, e.d.Refresh, e.d.Bootstrap, e.d.Group.Members)
		default:
			s += fmt.Sprintf(" %s(%d, op %d, %d)", e.kind, e.w, e.op, e.other)
		}
	}
	return s
}

// coreTestConfig is a core's config plus what its controller is built with.
type coreTestConfig struct {
	ServiceConfig
	P, Initial int
}

func coreConfig(n, p int) coreTestConfig {
	return coreTestConfig{ServiceConfig: ServiceConfig{N: n}, P: p}
}

func newController(cfg coreTestConfig) (*controller.Controller, error) {
	return controller.New(controller.Config{N: cfg.N, P: cfg.P, Initial: cfg.Initial, Weighting: controller.Constant})
}

func TestCoreReadyGroupsAndAnswersOnce(t *testing.T) {
	h := newCoreHarness(t, coreConfig(4, 2))
	h.ready(0, 1)
	if e := h.take(); len(e) != 0 {
		t.Fatalf("a lone signal was answered:%s", describe(e))
	}
	h.resend(0, 1) // retransmission before the answer: re-attaches, never re-queues
	if e := h.take(); len(e) != 0 || h.c.ctrl.QueueDepth() != 1 {
		t.Fatalf("retransmission re-queued or answered: depth %d,%s", h.c.ctrl.QueueDepth(), describe(e))
	}
	h.ready(1, 1)
	got := groupReplies(t, h.take())
	if len(got) != 2 || got[0].OpID != 1 || got[1].OpID != 1 || got[0].Epoch == 0 {
		t.Fatalf("want workers 0 and 1 in op 1 with an epoch, got %+v", got)
	}
	h.resend(0, 1) // retransmission after the answer: stale, dropped
	h.resend(1, 1)
	if e := h.take(); len(e) != 0 {
		t.Fatalf("stale retransmission produced effects:%s", describe(e))
	}
	h.ready(2, 1)
	h.ready(3, 1)
	if got := groupReplies(t, h.take()); len(got) != 2 || got[2].OpID != 2 || got[3].OpID != 2 {
		t.Fatalf("want workers 2 and 3 in op 2, got %+v", got)
	}
	if st := h.c.ctrl.Stats(); st.GroupsFormed != 2 || st.GroupsAborted != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCoreDeathInsideOpAbortsSurvivorsAndRegroups(t *testing.T) {
	h := newCoreHarness(t, coreConfig(4, 3))
	for w := 0; w < 3; w++ {
		h.ready(w, 1)
	}
	if got := groupReplies(t, h.take()); len(got) != 3 {
		t.Fatalf("want a 3-member group, got %+v", got)
	}
	h.death(2, 1)
	aborts := map[int]bool{}
	for _, e := range h.take() {
		if e.kind != "abort" || e.op != 1 || e.other != 2 {
			t.Fatalf("unexpected effect after death: %+v", e)
		}
		aborts[e.w] = true
	}
	if len(aborts) != 2 || !aborts[0] || !aborts[1] {
		t.Fatalf("abort must reach exactly the survivors 0 and 1, got %v", aborts)
	}
	h.death(2, 1) // the second survivor's report of the same death: idempotent
	if e := h.take(); len(e) != 0 {
		t.Fatalf("duplicate death report produced effects:%s", describe(e))
	}
	if st := h.c.ctrl.Stats(); st.Failures != 1 || st.GroupsAborted != 1 {
		t.Fatalf("stats after death %+v, want 1 failure and 1 abort", st)
	}
	// Survivors roll back and re-signal; with three ranks left alive the
	// effective group size is still 3, so the regroup waits for rank 3.
	h.ready(0, 1)
	h.ready(1, 1)
	h.ready(3, 1)
	got := groupReplies(t, h.take())
	if len(got) != 3 || got[3].OpID != 2 {
		t.Fatalf("want survivors {0,1,3} regrouped in op 2, got %+v", got)
	}
	for _, m := range got[0].Group.Members {
		if m == 2 {
			t.Fatal("the condemned rank was regrouped")
		}
	}
	// A late signal from the corpse is released solo, never queued.
	h.ready(2, 1)
	if e := h.take(); len(e) != 1 || !e[0].d.Skip {
		t.Fatalf("dead-marked sender must be released solo, got%s", describe(e))
	}
}

// The injected-crash schedule, exact: the corpse's last ready signal reached
// the controller, a group formed with it, and the detector fires before any
// survivor's report. The group must be torn down and counted — the assertion
// a live run cannot make, because there the signal may lose the race with the
// death and no group ever holds the corpse.
func TestCoreLostWhileGroupedCountsTheAbort(t *testing.T) {
	h := newCoreHarness(t, coreConfig(4, 2))
	h.ready(0, 1)
	h.ready(1, 1) // rank 1 signals and dies
	h.take()
	h.lost(1) // went dark inside op 1: that group is gone
	if st := h.c.ctrl.Stats(); st.Failures != 1 || st.GroupsAborted != 1 {
		t.Fatalf("lost inside an op: stats %+v, want 1 failure 1 abort", st)
	}
	if e := h.take(); len(e) != 1 || e[0].kind != "abort" || e[0].w != 0 {
		t.Fatalf("want one abort to survivor 0, got%s", describe(e))
	}
	h.ready(0, 1)
	h.ready(2, 1)
	h.take()
	h.ready(2, 2) // rank 2 is past op 2 …
	h.lost(2)     // … so losing it now only aborts op 2 as a precaution
	if st := h.c.ctrl.Stats(); st.Failures != 2 || st.GroupsAborted != 1 {
		t.Fatalf("lost between ops: stats %+v, want 2 failures and still 1 abort", st)
	}
}

func TestCoreStuckOpCondemnsNobody(t *testing.T) {
	h := newCoreHarness(t, coreConfig(4, 2))
	h.ready(0, 1)
	h.ready(1, 1)
	h.take()
	h.stuck(1)
	e := h.take()
	if len(e) != 2 || e[0].kind != "abort" || e[1].kind != "abort" || e[0].other != -1 || e[1].other != -1 {
		t.Fatalf("stuck op must abort both members naming nobody, got%s", describe(e))
	}
	h.stuck(1) // the other member's report
	if e := h.take(); len(e) != 0 {
		t.Fatalf("second stuck report produced effects:%s", describe(e))
	}
	if st := h.c.ctrl.Stats(); st.Failures != 0 || st.GroupsAborted != 1 {
		t.Fatalf("stuck op: stats %+v, want 0 failures and 1 abort", st)
	}
	h.ready(0, 1)
	h.ready(1, 1)
	if got := groupReplies(t, h.take()); len(got) != 2 || got[0].OpID != 2 {
		t.Fatalf("members must regroup after a stuck abort, got %+v", got)
	}
}

func TestCoreDrainLandsAtTheReadyPoint(t *testing.T) {
	cfg := coreConfig(4, 2)
	cfg.Elastic = hetero.ElasticSchedule{{AfterUpdates: 1, Kind: hetero.ElasticDrain, Worker: 3}}
	h := newCoreHarness(t, cfg)
	h.ready(3, 1)
	h.ready(0, 1) // op 1 = {3, 0}: the schedule now wants 3 drained …
	h.take()
	if !h.c.ctrl.IsMember(3) || h.c.ctrl.IsDraining(3) {
		t.Fatal("drain landed inside a group")
	}
	h.ready(3, 2) // … and it lands at 3's own next ready point
	e := h.take()
	if len(e) != 1 || !e[0].d.Drain || e[0].w != 3 {
		t.Fatalf("want a drain acknowledgment to 3, got%s", describe(e))
	}
	if st := h.c.ctrl.Stats(); st.Drains != 1 || st.Decommissions != 1 || st.Failures != 0 {
		t.Fatalf("drain stats %+v", st)
	}
	if h.c.active != 3 || h.c.ctrl.IsMember(3) {
		t.Fatalf("drained rank still counted: active=%d member=%t", h.c.active, h.c.ctrl.IsMember(3))
	}
	h.death(3, 1) // a peer mistaking the clean exit for a crash
	if st := h.c.ctrl.Stats(); st.Failures != 0 {
		t.Fatal("a drained rank was condemned")
	}
}

func TestCoreJoinViaDonorAndJoinAbort(t *testing.T) {
	cfg := coreConfig(4, 2)
	cfg.Initial = 3
	cfg.Elastic = hetero.ElasticSchedule{{AfterUpdates: 1, Kind: hetero.ElasticJoin, Worker: 3}}
	h := newCoreHarness(t, cfg)
	h.ready(0, 1)
	h.ready(1, 1)
	h.take()
	before := h.c.ctrl.Epoch()
	h.ready(2, 1) // the next ready member donates
	e := h.take()
	if len(e) != 2 || e[0].kind != "join" || e[0].w != 3 || e[0].other != 2 || e[0].op != bootOpBase+1 {
		t.Fatalf("want startJoin(3 from 2, first boot op) first, got%s", describe(e))
	}
	if d := e[1].d; e[1].w != 2 || !d.Bootstrap || d.BootstrapFor != 3 || d.BootstrapOp != bootOpBase+1 || d.Epoch <= before {
		t.Fatalf("donor directive %+v (epoch before %d)", d, before)
	}
	if !h.c.ctrl.IsMember(3) || h.c.active != 4 {
		t.Fatalf("joiner not admitted at assignment: member=%t active=%d", h.c.ctrl.IsMember(3), h.c.active)
	}
	h.ready(2, 1) // the donor re-signals the same iteration after serving
	h.joinAbort(3)
	if st := h.c.ctrl.Stats(); st.Joins != 1 || st.Drains != 1 || st.Decommissions != 1 || st.Failures != 0 {
		t.Fatalf("join-abort stats %+v", st)
	}
	if h.c.ctrl.IsMember(3) || h.c.active != 3 {
		t.Fatalf("join-abort did not un-join: member=%t active=%d", h.c.ctrl.IsMember(3), h.c.active)
	}
	h.joinAbort(3) // idempotent
	if st := h.c.ctrl.Stats(); st.Drains != 1 {
		t.Fatalf("second join-abort drained again: %+v", st)
	}
}

// The retransmission race: worker 0 is answered under seq 1 into op 1, but
// its bounded wait had already expired and its re-send under seq 2 arrives
// after the answer. Worker 0 now waits on seq 2, so its partner in op 1 times
// out and reports the op stuck. The op is dissolved once, nobody is
// condemned, every (worker, seq) is answered exactly once (the harness
// checks), and worker 0's queued re-send is grouped on the partner's next
// signal.
func TestCoreStuckAfterRetransmitRace(t *testing.T) {
	h := newCoreHarness(t, coreConfig(4, 2))
	h.ready(0, 1)
	h.ready(1, 1)
	if got := groupReplies(t, h.take()); len(got) != 2 || got[0].OpID != 1 || got[1].OpID != 1 {
		t.Fatalf("want workers 0 and 1 in op 1, got %+v", got)
	}
	h.retransmit(0, 1)
	if e := h.take(); len(e) != 0 || !h.c.ctrl.IsQueued(0) {
		t.Fatalf("a re-send under a fresh seq must queue unanswered (queued=%t):%s", h.c.ctrl.IsQueued(0), describe(e))
	}
	h.stuck(1)
	e := h.take()
	if len(e) != 2 || e[0].kind != "abort" || e[1].kind != "abort" || e[0].op != 1 || e[1].op != 1 || e[0].other != -1 || e[1].other != -1 {
		t.Fatalf("stuck op 1 must abort both members naming nobody, got%s", describe(e))
	}
	h.stuck(1) // a second report of the same op
	if e := h.take(); len(e) != 0 {
		t.Fatalf("second stuck report produced effects:%s", describe(e))
	}
	if st := h.c.ctrl.Stats(); st.Failures != 0 || st.GroupsAborted != 1 || h.c.dead(0) || h.c.dead(1) {
		t.Fatalf("stuck op after a retransmission: stats %+v dead %v %v, want no failure and one abort", st, h.c.dead(0), h.c.dead(1))
	}
	h.ready(1, 1) // the partner rolls back and re-signals
	got := groupReplies(t, h.take())
	if len(got) != 2 || got[0].OpID != 2 || got[1].OpID != 2 {
		t.Fatalf("want workers 0 and 1 regrouped in op 2, got %+v", got)
	}
	if !h.replied[[2]uint64{0, 1}] || !h.replied[[2]uint64{0, 2}] {
		t.Fatalf("worker 0 must be answered under both seqs: %v", h.replied)
	}
}

func TestCoreTailRelease(t *testing.T) {
	h := newCoreHarness(t, coreConfig(4, 3))
	h.finished(0)
	h.finished(1)
	h.ready(2, 5)
	if e := h.take(); len(e) != 0 {
		t.Fatalf("released while rank 3 is still computing:%s", describe(e))
	}
	h.ready(3, 5)
	e := h.take()
	if len(e) != 2 || !e[0].d.Skip || !e[1].d.Skip {
		t.Fatalf("stranded tail must be released solo, got%s", describe(e))
	}
	if h.c.ctrl.QueueDepth() != 0 {
		t.Fatal("released signals linger in the queue")
	}
	h.ready(2, 6) // the re-signal after the solo step is accepted cleanly
	h.finished(3)
	if e := h.take(); len(e) != 1 || !e[0].d.Skip {
		t.Fatalf("last worker standing must be released, got%s", describe(e))
	}
}

func TestCoreLostWakesWaitingWorker(t *testing.T) {
	h := newCoreHarness(t, coreConfig(4, 3))
	h.ready(0, 1)
	h.lost(0)
	e := h.take()
	if len(e) != 1 || !e[0].d.Skip || e[0].w != 0 {
		t.Fatalf("a falsely accused waiting worker must be woken solo, got%s", describe(e))
	}
	if h.c.ctrl.QueueDepth() != 0 || h.c.active != 3 {
		t.Fatalf("queue %d active %d after lost", h.c.ctrl.QueueDepth(), h.c.active)
	}
	h.finished(0) // a dead-marked worker's completion does not count
	if h.c.completed[0] || h.c.active != 3 {
		t.Fatalf("dead worker counted as completed: %v active=%d", h.c.completed, h.c.active)
	}
}

func TestCoreGroupedWithoutPendingSignalIsAnError(t *testing.T) {
	h := newCoreHarness(t, coreConfig(4, 2))
	h.seq[0]++
	h.c.Ready(0, 1, h.seq[0], 0, 0)
	h.c.waiting[0], h.c.nWaiting = false, 0 // corrupt the bookkeeping
	h.seq[1]++
	h.c.Ready(1, 1, h.seq[1], 0, 0)
	if h.c.err == nil {
		t.Fatal("grouping a worker with no pending signal went unnoticed")
	}
}

// Exit evaluates the watchdog even when no Tick ever fired (a run shorter
// than the cadence must still report ready).
func TestCoreExitEvaluatesWatchdog(t *testing.T) {
	cfg := coreConfig(4, 2)
	cfg.Watchdog = health.New(health.SLO{})
	h := newCoreHarness(t, cfg)
	if cfg.Watchdog.State().Ready() {
		t.Fatal("watchdog ready before any evaluation")
	}
	h.c.Exit(1.5)
	if st := cfg.Watchdog.State(); !st.Ready() || st.Evals != 1 {
		t.Fatalf("exit did not evaluate: %+v", st)
	}
}

// The watchdog as the live runtime drives it: Ticks on the health clock,
// evaluated by the core over the run's instruments. A retry storm captures
// exactly one bundle however long it persists; once the rule has cleared
// (four clean ticks), a second storm captures a second. Both bundles are
// intact and name the rule.
func TestCoreWatchdogFiresOncePerAnomaly(t *testing.T) {
	ins := metrics.NewInstruments(4)
	tr := trace.New(trace.FuncClock(func() float64 { return 0 }), 64)
	tr.SetSink(ins.Observe)
	cfg := coreConfig(4, 2)
	cfg.Watchdog = health.New(health.SLO{RetryStorm: 2})
	cfg.Instruments = ins
	rec := health.NewRecorder(t.TempDir(), tr, ins, []byte(`{"test":"core-watchdog"}`))
	cfg.Recorder = rec
	h := newCoreHarness(t, cfg)
	tick := func(n int, retries int64) {
		for i := 0; i < n; i++ {
			ins.AddComms(metrics.CommStats{Retries: retries})
			h.c.Tick(h.now)
			h.after()
		}
	}
	bundles := func(want int) {
		t.Helper()
		if got := len(rec.Written()); got != want {
			t.Fatalf("%d bundles %v, want %d; watchdog %+v", got, rec.Written(), want, cfg.Watchdog.State())
		}
	}

	tick(1, 0) // primes the retry baseline
	tick(10, 3)
	bundles(1)
	tick(3, 0)
	tick(10, 3) // three clean ticks do not clear the rule
	bundles(1)
	tick(4, 0)
	tick(2, 3)
	bundles(2)
	for _, path := range rec.Written() {
		man, _, err := health.ReadBundle(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(man.Rules) != 1 || man.Rules[0] != "retry-storm" {
			t.Fatalf("%s: rules %v, want [retry-storm]", path, man.Rules)
		}
	}
}

type nopSink struct{}

func (nopSink) Reply(int, uint64, Directive) {}
func (nopSink) Abort(int, uint32, int)       {}
func (nopSink) StartJoin(int, int, uint32)   {}

// The hot path: serving a ready signal through the core allocates nothing
// beyond what the controller itself allocates to form the group (the
// directive travels to the sink by value).
func TestCoreAddsNoAllocationPerSignal(t *testing.T) {
	cfg := coreConfig(4, 4) // one group per round, no leftovers, no filter deferrals
	rounds := func(ready func(w, iter int)) func() {
		iter := 0
		return func() {
			iter++
			for w := 0; w < cfg.N; w++ {
				ready(w, iter)
			}
		}
	}
	bareCtrl, err := newController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare := testing.AllocsPerRun(500, rounds(func(w, iter int) {
		if _, err := bareCtrl.Ready(controller.Signal{Worker: w, Iter: iter}); err != nil {
			t.Fatal(err)
		}
	}))
	servedCtrl, err := newController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewServiceCore(cfg.ServiceConfig, servedCtrl, nopSink{})
	served := testing.AllocsPerRun(500, rounds(func(w, iter int) { c.Ready(w, iter, uint64(iter), 0, 0) }))
	if c.err != nil || c.ctrl.Stats().GroupsFormed < 500 {
		t.Fatalf("core did not serve the rounds: err=%v stats=%+v", c.err, c.ctrl.Stats())
	}
	if served > bare {
		t.Fatalf("core allocates on the ready path: %.1f allocs/round served vs %.1f for the bare controller", served, bare)
	}

	// Traced and instrumented, the instruments wired as the tracer's sink
	// as a run wires them: recording and folding allocate nothing either.
	tr := trace.New(trace.FuncClock(func() float64 { return 1 }), 1024)
	ins := metrics.NewInstruments(cfg.N)
	tr.SetSink(ins.Observe)
	tracedCtrl, err := newController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tracedCtrl.SetTracer(tr)
	tracedCtrl.SetInstruments(ins)
	tc := NewServiceCore(ServiceConfig{N: cfg.N, Instruments: ins}, tracedCtrl, nopSink{})
	traced := testing.AllocsPerRun(500, rounds(func(w, iter int) { tc.Ready(w, iter, uint64(iter), 0, float64(iter)) }))
	if snap := ins.Snapshot(); tc.err != nil || snap.GroupsFormed < 500 || snap.GroupCount[0] < 500 {
		t.Fatalf("traced core did not serve and fold the rounds: err=%v groups=%d", tc.err, snap.GroupsFormed)
	}
	if traced > bare {
		t.Fatalf("traced core allocates on the ready path: %.1f allocs/round vs %.1f for the bare controller", traced, bare)
	}
}

// settle is after for a core the simulator drives, where a member leaves its
// group when the average lands (done) or when it is condemned — both in the
// core's own bookkeeping, read here once the event has returned.
func (h *coreHarness) settle() {
	h.t.Helper()
	for w, op := range h.inGroup {
		if op != 0 && (!h.c.inOp[w] || h.c.dead(w)) {
			h.inGroup[w] = 0
		}
	}
	h.take()
	h.after()
}

// The simulator drives the same core: three seeded fault cells and a
// fault-free one run with the harness wrapped around the sim sink, checked
// after every core event.
func TestSimServiceInvariants(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		set   func(*cluster.Config)
		check func(controller.Stats) bool
	}{
		{"random-crashes", 31, func(cfg *cluster.Config) {
			cfg.Crashes = hetero.RandomCrashes(cfg.N, 0.5, 6, 31)
			cfg.Threshold, cfg.MaxUpdates = 0.999, 300
		}, func(st controller.Stats) bool { return st.Failures >= 2 }},
		{"scale-staircase", 32, func(cfg *cluster.Config) {
			cfg.Initial = 5
			cfg.Elastic = hetero.ScaleSchedule(5, 8, 4, 30, 15)
			cfg.Threshold, cfg.MaxUpdates = 0.999, 400
		}, func(st controller.Stats) bool { return st.Joins == 3 && st.Decommissions == 4 && st.Failures == 0 }},
		{"partition-one-attempt", 33, func(cfg *cluster.Config) {
			cfg.Partitions = hetero.PartitionSchedule{{Ranks: []int{6, 7}, From: 0.3, Until: 1.5}}
			cfg.Retry = cluster.RetryModel{MaxAttempts: 1, Timeout: 0.2}
			cfg.Threshold, cfg.MaxUpdates = 0.999, 300
		}, func(st controller.Stats) bool { return st.GroupsAborted > 0 && st.Failures == 0 }},
		{"no-faults", 34, func(cfg *cluster.Config) {
			cfg.Threshold, cfg.MaxUpdates = 0.999, 300
		}, func(st controller.Stats) bool { return st.GroupsFormed >= 300 }},
	} {
		cfg := testutil.Config(t, tc.seed)
		tc.set(&cfg)
		c, err := cluster.New(cfg, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := controller.New(NewPReduce(PReduceConfig{P: 3}).controllerConfig(c))
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		_, err = runPReduceSim(c, ctrl, func(core *ServiceCore, out Sink) (Sink, func()) {
			h := &coreHarness{t: t, c: core, next: out, replied: map[[2]uint64]bool{}, inGroup: make([]uint32, cfg.N)}
			return h, func() { events++; h.settle() }
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := ctrl.Stats(); !tc.check(st) || events < 100 {
			t.Fatalf("%s: the cell did not exercise the service (%d events): %+v", tc.name, events, st)
		}
	}
}
