package controller

// Controller snapshot/restore: the control plane's own fault tolerance. The
// paper's controller is deliberately lightweight — a queue of a few-byte
// signals, a window of recent groups, liveness bits — so its full state
// serializes in microseconds and a restarted controller process can resume
// exactly where the old one stopped (warm failover). When even the snapshot
// is lost, Rebuild reconstructs an equivalent controller purely from the
// workers re-sending their pending ready signals (cold failover): the queue
// order may differ from the lost original, but every invariant the algorithm
// relies on (one signal per worker, FIFO service, sync-graph warm-up) holds
// again, and liveness re-converges through the runtime's failure detector.
//
// The encoding is internal/binfmt's: versioned, deterministic (no map
// iteration), little-endian, integrity-checked with CRC-64/ECMA.

import (
	"fmt"

	"partialreduce/internal/binfmt"
	"partialreduce/internal/trace"
)

// snapshotMagic identifies a controller snapshot ("PRCS").
const snapshotMagic uint32 = 0x50524353

// snapshotVersion is the current encoding version. Version 2 added the
// iteration-tracking state (lastIter/maxIter/lastNow/lastTog) and the
// formation-policy state blob: policies decide from them, so warm
// failover must carry them for the replacement to decide identically.
// Version 3 added elastic membership: cfg.Initial, the per-signal epoch,
// the membership/draining vectors, the world-view epoch, and the
// join/drain/decommission/stale-epoch counters. Version 4 dropped what
// no runtime read: the per-worker heartbeat clocks of a controller-side
// staleness detector, and the RecordGroups flag with its group log.
const snapshotVersion uint32 = 4

// maxSnapshotLen bounds decoded slice lengths against corrupt headers.
const maxSnapshotLen = 1 << 24

// Snapshot serializes the controller's complete state: effective config,
// signal queue (in FIFO order), sync-graph window (ring storage, cursor,
// fill state), activity counters, liveness and membership vectors,
// the group-history database, iteration tracking, and the attached
// formation policy's state. Two controllers with equal state produce
// byte-identical snapshots, so Snapshot→Restore→Snapshot is the round-trip
// equality check.
func (c *Controller) Snapshot() []byte {
	e := binfmt.NewWriter(snapshotMagic, snapshotVersion, 256)

	// Effective config.
	e.I64(c.cfg.N)
	e.I64(c.cfg.P)
	e.I64(c.cfg.Window)
	e.I64(int(c.cfg.Weighting))
	e.F64(c.cfg.Alpha)
	e.I64(int(c.cfg.Approx))
	e.Bool(c.cfg.DisableGroupFilter)
	e.Bool(c.cfg.ZoneAffinity)
	e.Ints(c.cfg.Zones)
	e.I64(c.cfg.Initial)

	// Signal queue (FIFO order).
	e.I64(len(c.queue))
	for _, s := range c.queue {
		e.I64(s.Worker)
		e.I64(s.Iter)
		e.F64(s.Now)
		e.U64(s.Epoch)
	}

	// Sync-graph window: ring storage order plus cursor and fill state.
	e.I64(c.graph.next)
	e.Bool(c.graph.filled)
	e.I64(len(c.graph.groups))
	for _, g := range c.graph.groups {
		e.Ints(g)
	}

	// Activity counters.
	for _, f := range c.stats.fields() {
		e.I64(*f)
	}

	// Liveness and elastic membership.
	e.Bools(c.alive)
	e.Bools(c.member)
	e.Bools(c.draining)
	e.U64(c.epoch)

	// Group-history database.
	e.Ints(c.inGroup)
	for _, row := range c.together {
		e.Ints(row)
	}

	// Iteration tracking and formation-policy state (v2). An attached
	// policy contributes its live state; a controller restored but not
	// yet given a policy passes the parked blob through unchanged, so
	// Snapshot→Restore→Snapshot is byte-identical with or without the
	// policy re-attached.
	e.Ints(c.lastIter)
	e.I64(c.maxIter)
	e.F64(c.lastNow)
	for _, row := range c.lastTog {
		e.Ints(row)
	}
	blob := c.polBlob
	if c.pol != nil {
		blob = c.pol.Snapshot()
	}
	e.Bytes(blob)

	snap := e.Seal()
	c.tracer.Instant(trace.KCtrlSnapshot, trace.ControllerTrack, -1, int64(len(snap)), 0)
	return snap
}

// Restore reconstructs a controller from a Snapshot. The restored controller
// is behaviorally identical to the snapshotted one: same queue, window,
// liveness, counters, and history, so the next Ready/Fail/Drain sequence
// produces the same groups the lost controller would have produced.
func Restore(data []byte) (*Controller, error) {
	d, err := binfmt.Open("controller: snapshot", data, snapshotMagic, snapshotVersion)
	if err != nil {
		return nil, err
	}

	var cfg Config
	cfg.N = d.I64()
	cfg.P = d.I64()
	cfg.Window = d.I64()
	cfg.Weighting = Weighting(d.I64())
	cfg.Alpha = d.F64()
	cfg.Approx = ApproxRule(d.I64())
	cfg.DisableGroupFilter = d.Bool()
	cfg.ZoneAffinity = d.Bool()
	cfg.Zones = d.Ints(maxSnapshotLen)
	cfg.Initial = d.I64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	c, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("controller: snapshot config: %w", err)
	}

	qn := d.Count(maxSnapshotLen)
	for i := 0; i < qn && d.Err() == nil; i++ {
		s := Signal{Worker: d.I64(), Iter: d.I64(), Now: d.F64(), Epoch: d.U64()}
		if s.Worker < 0 || s.Worker >= cfg.N {
			d.Fail("queued worker %d out of range", s.Worker)
			break
		}
		if c.queued[s.Worker] {
			d.Fail("worker %d queued twice", s.Worker)
			break
		}
		c.queue = append(c.queue, s)
		c.queued[s.Worker] = true
	}

	c.graph.next = d.I64()
	c.graph.filled = d.Bool()
	gn := d.Count(maxSnapshotLen)
	c.graph.groups = c.graph.groups[:0]
	for i := 0; i < gn && d.Err() == nil; i++ {
		c.graph.groups = append(c.graph.groups, d.Ints(maxSnapshotLen))
	}
	if d.Err() == nil {
		if gn > c.graph.window || c.graph.next < 0 || (gn > 0 && c.graph.next >= c.graph.window) {
			d.Fail("sync-graph window state out of range")
		}
	}

	for _, f := range c.stats.fields() {
		*f = d.I64()
	}

	alive := d.Bools(maxSnapshotLen)
	member := d.Bools(maxSnapshotLen)
	draining := d.Bools(maxSnapshotLen)
	epoch := d.U64()
	inGroup := d.Ints(maxSnapshotLen)
	if d.Err() == nil && (len(alive) != cfg.N || len(inGroup) != cfg.N ||
		len(member) != cfg.N || len(draining) != cfg.N) {
		d.Fail("liveness/history length mismatch")
	}
	if d.Err() == nil && epoch == 0 {
		d.Fail("world-view epoch 0")
	}
	if d.Err() == nil {
		copy(c.alive, alive)
		copy(c.member, member)
		copy(c.draining, draining)
		copy(c.inGroup, inGroup)
		c.epoch = epoch
		c.aliveN = 0
		for i, a := range c.alive {
			if a && !c.member[i] {
				d.Fail("rank %d alive but not a member", i)
				break
			}
			if a {
				c.aliveN++
			}
		}
	}
	readMatrix(d, c.together, "together")

	// Iteration tracking and formation-policy state (v2).
	lastIter := d.Ints(maxSnapshotLen)
	if d.Err() == nil && len(lastIter) != cfg.N {
		d.Fail("iteration-tracking length mismatch")
	}
	if d.Err() == nil {
		copy(c.lastIter, lastIter)
	}
	c.maxIter = d.I64()
	c.lastNow = d.F64()
	readMatrix(d, c.lastTog, "last-together")
	if blob := d.Bytes(maxSnapshotLen); len(blob) > 0 {
		c.polBlob = append([]byte(nil), blob...)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// readMatrix fills the N×N matrix m row by row, failing d on a row of the
// wrong length.
func readMatrix(d *binfmt.Reader, m [][]int, what string) {
	for i := 0; i < len(m) && d.Err() == nil; i++ {
		row := d.Ints(maxSnapshotLen)
		if len(row) != len(m) {
			d.Fail("%s row %d length %d", what, i, len(row))
			return
		}
		copy(m[i], row)
	}
}

// FlushGroups forms as many groups as the current queue supports — the
// public entry the failover path uses after a Restore or Rebuild to flush
// groups the lost controller might have been about to dispatch. (Graceful
// rank departure is Drain, in elastic.go.)
func (c *Controller) FlushGroups() []Group { return c.drainGroups() }

// IsQueued reports whether worker currently has a ready signal in the queue.
// The failover path uses it to recognize a retransmitted ready signal (the
// worker re-sent because its reply never came) as distinct from a duplicate.
func (c *Controller) IsQueued(worker int) bool {
	return worker >= 0 && worker < c.cfg.N && c.queued[worker]
}

// Rebuild is the cold-failover path: it reconstructs a controller for cfg
// purely from the ready signals workers re-send after noticing the old
// controller died, and returns it with any groups formed while replaying
// them. Duplicate signals from the same worker are tolerated (the first
// wins), since a worker that re-sends twice during the recovery window is
// expected. The rebuilt controller has a fresh sync-graph and empty history:
// frozen-avoidance warms up again, which is safe (the window must fill
// before the filter activates). Dead workers the lost controller knew about
// are re-detected by the runtime's failure detector — a worker that never re-signals
// never lands in a group.
//
// Elasticity: a re-sent signal from a rank outside cfg's initial
// membership proves the lost controller had admitted it (it had already
// bootstrapped and signaled), so Rebuild re-admits it on the spot. Signal
// epochs are versions of the lost controller's world view and meaningless
// to the rebuilt one; they are stripped, and the fresh controller's first
// group replies re-issue the current epoch to everyone.
func Rebuild(cfg Config, signals []Signal) (*Controller, []Group, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var groups []Group
	seen := make([]bool, c.cfg.N)
	for _, s := range signals {
		// "First wins" must survive group formation: once a worker's signal
		// lands in a group it is no longer queued, so the queued flag alone
		// would mistake a late retransmission for a fresh signal and group
		// the worker twice while it waits on a single reply.
		if s.Worker < 0 || s.Worker >= c.cfg.N || seen[s.Worker] || c.queued[s.Worker] {
			continue
		}
		seen[s.Worker] = true
		if !c.member[s.Worker] {
			if err := c.Join(s.Worker, s.Now); err != nil {
				return nil, nil, err
			}
		}
		s.Epoch = 0
		gs, err := c.Ready(s)
		if err != nil {
			return nil, nil, err
		}
		groups = append(groups, gs...)
	}
	return c, groups, nil
}
