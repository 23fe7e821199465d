package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"partialreduce/internal/hetero"
	"partialreduce/internal/trace"
)

// LinkFault is a fault spec for one directed link (from, to). It models the
// partial failures real heterogeneous clusters mostly suffer: one-directional
// loss, and severed links that stall a collective forever rather than killing
// an endpoint.
type LinkFault struct {
	// DropFirst drops the first K messages on this link. Deterministic loss
	// is what retry tests pin down.
	DropFirst int
	// Sever silently loses every message on this link until healed — the
	// one-directional cable cut. Receivers need deadlines, not luck.
	Sever bool
}

// FaultPlan is a deterministic fault schedule for a Faulty world: which ranks
// crash after how many sends, which links lose what, and when the network
// partitions. It draws nothing at random, so a run whose per-direction message
// sequences are deterministic (as every collective schedule is) sees the same
// faults on every execution.
type FaultPlan struct {
	// CrashAfterSends maps rank -> number of successful Send calls after
	// which that rank crashes: its endpoint dies and every peer sees it as
	// down (*PeerDownError).
	CrashAfterSends map[int]int
	// LinkFaults maps a directed (from, to) pair to a link-level fault spec.
	// Healable via HealLink.
	LinkFaults map[[2]int]LinkFault
	// Partitions are timed network partitions, in seconds since world
	// creation: a frame with exactly one endpoint inside an active
	// partition's Ranks is silently dropped.
	Partitions hetero.PartitionSchedule
}

// Validate reports whether the plan is usable in a world of n endpoints.
func (p FaultPlan) Validate(n int) error {
	for link, lf := range p.LinkFaults {
		if link[0] < 0 || link[1] < 0 || link[0] >= n || link[1] >= n {
			return fmt.Errorf("transport: link fault (%d,%d) outside world of %d", link[0], link[1], n)
		}
		if link[0] == link[1] {
			return fmt.Errorf("transport: link fault (%d,%d) is a self-link", link[0], link[1])
		}
		if lf.DropFirst < 0 {
			return fmt.Errorf("transport: link (%d,%d) has a negative drop count", link[0], link[1])
		}
	}
	for r, c := range p.CrashAfterSends {
		if r < 0 || r >= n {
			return fmt.Errorf("transport: crash rank %d outside world of %d", r, n)
		}
		if c < 0 {
			return fmt.Errorf("transport: negative crash count for rank %d", r)
		}
	}
	return p.Partitions.Validate(n)
}

// linkState is the mutable per-directed-link fault state: the spec and the
// sent counter (for DropFirst).
type linkState struct {
	fault LinkFault
	sent  int
}

// faultyWorld is the state shared by all endpoints of one Faulty world.
type faultyWorld struct {
	mu    sync.Mutex
	plan  FaultPlan
	inner []Transport
	dead  []bool
	start time.Time
	links map[[2]int]*linkState
	// partFired tracks which timed partitions have had their open (1) and
	// close (2) trace instants emitted; the windows are evaluated lazily,
	// so the events fire on the first message decision that observes the
	// transition.
	partFired []uint8
	// tracer, when non-nil, records the fault plane: KLinkSever/KLinkHeal,
	// KLinkDrop per lost frame, KPartition/KPartitionHeal windows, KCrash.
	tracer *trace.Tracer
	// faulted is true while any link faults or partitions are configured; a
	// zero plan never takes the link-decision lock (pass-through property).
	faulted atomic.Bool
}

// refreshFaulted recomputes the fast-path flag. Callers hold w.mu.
func (w *faultyWorld) refreshFaulted() {
	w.faulted.Store(len(w.links) > 0 || len(w.plan.Partitions) > 0)
}

// linkDecision reports whether partition and link-level faults drop one
// message on the directed link from -> to at elapsed time now.
func (w *faultyWorld) linkDecision(from, to int, now time.Duration) (drop bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := now.Seconds()
	for i, part := range w.plan.Partitions {
		active := part.Active(t)
		// Lazily emit the window transitions the first time a message
		// decision observes them.
		if active && w.partFired[i] == 0 {
			w.partFired[i] = 1
			w.tracer.Instant(trace.KPartition, trace.ControllerTrack, -1, int64(part.Ranks[0]), int64(len(part.Ranks)))
		} else if !active && w.partFired[i] == 1 && t >= part.From {
			w.partFired[i] = 2
			w.tracer.Instant(trace.KPartitionHeal, trace.ControllerTrack, -1, int64(part.Ranks[0]), int64(len(part.Ranks)))
		}
		if active && part.Splits([]int{from, to}) {
			w.tracer.Instant(trace.KLinkDrop, int32(from), -1, int64(from), int64(to))
			return true
		}
	}
	ls, ok := w.links[[2]int{from, to}]
	if !ok {
		return false
	}
	ls.sent++
	if ls.fault.Sever || ls.sent <= ls.fault.DropFirst {
		w.tracer.Instant(trace.KLinkDrop, int32(from), -1, int64(from), int64(to))
		return true
	}
	return false
}

// Faulty wraps a Transport endpoint and injects crashes and drops according
// to a shared FaultPlan. With a zero plan it is a transparent pass-through
// (the property the collective tests pin down).
type Faulty struct {
	inner Transport
	world *faultyWorld
	rank  int
	sends atomic.Int64
}

// newFaultyWorld builds the shared world state for n ranks, copying the
// plan's link specs into mutable (healable) state.
func newFaultyWorld(inner []Transport, plan FaultPlan, n int) *faultyWorld {
	w := &faultyWorld{
		plan:      plan,
		inner:     inner,
		dead:      make([]bool, n),
		start:     time.Now(),
		links:     make(map[[2]int]*linkState, len(plan.LinkFaults)),
		partFired: make([]uint8, len(plan.Partitions)),
	}
	for link, lf := range plan.LinkFaults {
		w.links[link] = &linkState{fault: lf}
	}
	w.refreshFaulted()
	return w
}

// NewFaultyWorld wraps every endpoint of an in-process world with fault
// injection driven by plan. len(inner) must be the world size and entry i
// must be rank i's endpoint. Invalid plans are rejected at construction.
func NewFaultyWorld(inner []Transport, plan FaultPlan) ([]*Faulty, error) {
	n := len(inner)
	if n < 1 {
		return nil, fmt.Errorf("transport: empty world")
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	w := newFaultyWorld(inner, plan, n)
	eps := make([]*Faulty, n)
	for i := range eps {
		eps[i] = &Faulty{inner: inner[i], world: w, rank: i}
	}
	return eps, nil
}

// NewFaultyEndpoint wraps a single endpoint (typically one process's TCP
// transport) with send-side fault injection driven by plan. When every
// process of a deployment wraps its endpoint with the same plan, partitions
// behave symmetrically: each side drops its own outbound crossings. Ranks in
// the plan refer to world ranks; only faults whose source is this endpoint's
// rank ever apply.
func NewFaultyEndpoint(inner Transport, plan FaultPlan) (*Faulty, error) {
	n := inner.Size()
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	world := make([]Transport, n)
	world[inner.Rank()] = inner
	return &Faulty{inner: inner, world: newFaultyWorld(world, plan, n), rank: inner.Rank()}, nil
}

// SetTracer attaches a trace recorder to the whole Faulty world (shared by
// every endpoint): link sever/heal, per-frame drops, partition windows, and
// crashes become trace instants. A nil tracer disables recording.
func (f *Faulty) SetTracer(t *trace.Tracer) {
	f.world.mu.Lock()
	f.world.tracer = t
	f.world.mu.Unlock()
}

// Kill crashes rank now: its endpoint and every peer treat it as down. Safe
// to call from any goroutine; idempotent.
func (f *Faulty) Kill(rank int) {
	w := f.world
	w.mu.Lock()
	if rank < 0 || rank >= len(w.dead) || w.dead[rank] {
		w.mu.Unlock()
		return
	}
	w.dead[rank] = true
	tr := w.tracer
	w.mu.Unlock()
	tr.Instant(trace.KCrash, int32(rank), -1, 0, 0)
	FailPeerEverywhere(w.inner, rank)
}

func (f *Faulty) deadRank(rank int) bool {
	f.world.mu.Lock()
	defer f.world.mu.Unlock()
	return f.world.dead[rank]
}

// Rank implements Transport.
func (f *Faulty) Rank() int { return f.inner.Rank() }

// Size implements Transport.
func (f *Faulty) Size() int { return f.inner.Size() }

// Send implements Transport, applying the fault plan before forwarding.
func (f *Faulty) Send(to int, tag uint64, payload []float64) error {
	return f.Lend(to, tag, payload, nil)
}

// Lend implements Transport: the fault plan decides as it does for Send,
// and a frame it lets through is lent by the inner endpoint (a nil loans
// sends it). A dropped frame was never lent, so it leaves nothing to settle.
func (f *Faulty) Lend(to int, tag uint64, payload []float64, loans *Loans) error {
	if f.deadRank(f.rank) {
		return &PeerDownError{Peer: f.rank}
	}
	if to >= 0 && to < f.Size() && f.deadRank(to) {
		return &PeerDownError{Peer: to}
	}
	if limit, ok := f.world.plan.CrashAfterSends[f.rank]; ok && f.sends.Add(1) > int64(limit) {
		f.Kill(f.rank)
		return &PeerDownError{Peer: f.rank}
	}
	if f.world.faulted.Load() && f.world.linkDecision(f.rank, to, time.Since(f.world.start)) {
		return nil // lost on the wire (sever, partition, or DropFirst)
	}
	if loans == nil {
		return f.inner.Send(to, tag, payload)
	}
	return f.inner.Lend(to, tag, payload, loans)
}

// SeverLink cuts the directed link from -> to: every message on it is lost
// until HealLink. Safe to call from any goroutine mid-run.
func (f *Faulty) SeverLink(from, to int) {
	w := f.world
	w.mu.Lock()
	defer w.mu.Unlock()
	ls, ok := w.links[[2]int{from, to}]
	if !ok {
		ls = &linkState{}
		w.links[[2]int{from, to}] = ls
	}
	ls.fault.Sever = true
	w.tracer.Instant(trace.KLinkSever, trace.ControllerTrack, -1, int64(from), int64(to))
	w.refreshFaulted()
}

// HealLink clears the fault spec of the directed link from -> to.
func (f *Faulty) HealLink(from, to int) {
	w := f.world
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.links, [2]int{from, to})
	w.tracer.Instant(trace.KLinkHeal, trace.ControllerTrack, -1, int64(from), int64(to))
	w.refreshFaulted()
}

// RecvInto implements Transport.
func (f *Faulty) RecvInto(from int, tag uint64, dst []float64) (int, error) {
	return f.RecvIntoTimeout(from, tag, dst, 0)
}

// RecvIntoTimeout implements Transport, forwarding to the inner endpoint
// (faults are injected on the send side, so the receive passes through).
func (f *Faulty) RecvIntoTimeout(from int, tag uint64, dst []float64, timeout time.Duration) (int, error) {
	if f.deadRank(f.rank) {
		return 0, &PeerDownError{Peer: f.rank}
	}
	return f.inner.RecvIntoTimeout(from, tag, dst, timeout)
}

// PurgeOp implements Transport.
func (f *Faulty) PurgeOp(op uint32) { f.inner.PurgeOp(op) }

// FailPeer implements Transport.
func (f *Faulty) FailPeer(peer int) { f.inner.FailPeer(peer) }

// FrameElems implements Transport: faults change no frame's size.
func (f *Faulty) FrameElems() int { return f.inner.FrameElems() }

// SegmentElems implements Transport: faults change no segment's size.
func (f *Faulty) SegmentElems(g int) int { return f.inner.SegmentElems(g) }

// AbortOp implements Transport.
func (f *Faulty) AbortOp(op uint32) { f.inner.AbortOp(op) }

// FailSelf implements Transport: the wrapped rank crashes now.
func (f *Faulty) FailSelf() { f.Kill(f.rank) }

// Close implements Transport.
func (f *Faulty) Close() error { return f.inner.Close() }
