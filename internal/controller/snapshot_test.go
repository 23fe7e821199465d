package controller

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// snapCfg is the reference configuration the snapshot tests drive.
func snapCfg() Config {
	return Config{N: 6, P: 3, Weighting: Dynamic, Alpha: 0.5}
}

// drive replays a canned op sequence against c and returns every group it
// formed, in order.
func drive(t *testing.T, c *Controller, ops []func(c *Controller) ([]Group, error)) []Group {
	t.Helper()
	var out []Group
	for i, op := range ops {
		gs, err := op(c)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		out = append(out, gs...)
	}
	return out
}

func readyOp(w, iter int, now float64) func(*Controller) ([]Group, error) {
	return func(c *Controller) ([]Group, error) {
		return c.Ready(Signal{Worker: w, Iter: iter, Now: now})
	}
}

func failOp(w int) func(*Controller) ([]Group, error) {
	return func(c *Controller) ([]Group, error) { return c.Fail(w), nil }
}

// TestSnapshotRestoreRoundTrip: Snapshot→Restore→Snapshot is the identity on
// bytes, and the restored controller continues producing exactly the groups
// the original would have.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	build := func() *Controller {
		c, err := New(snapCfg())
		if err != nil {
			t.Fatal(err)
		}
		// Mid-flight state: one full group formed, a partial queue, one
		// death.
		drive(t, c, []func(*Controller) ([]Group, error){
			readyOp(0, 1, 1.0), readyOp(1, 2, 1.1), readyOp(2, 1, 1.2), // group
			readyOp(3, 3, 1.3), // queued
			failOp(5),
			readyOp(4, 2, 1.4), // queued
		})
		return c
	}

	orig := build()
	snap := orig.Snapshot()
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if again := restored.Snapshot(); !bytes.Equal(snap, again) {
		t.Fatalf("Snapshot∘Restore not identity: %d vs %d bytes", len(snap), len(again))
	}
	if restored.Stats() != orig.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", restored.Stats(), orig.Stats())
	}
	if restored.QueueDepth() != orig.QueueDepth() || restored.AliveCount() != orig.AliveCount() {
		t.Fatal("queue or liveness diverged across restore")
	}

	// Behavioral equivalence: the same continuation produces the same groups.
	cont := []func(*Controller) ([]Group, error){
		readyOp(1, 3, 3.0), // fills a group with the queued {3,4}
		readyOp(0, 2, 3.1),
		readyOp(2, 2, 3.2),
		readyOp(3, 4, 3.3),
	}
	fresh := build() // orig was not mutated past the snapshot; replay on a twin
	a := drive(t, fresh, cont)
	b := drive(t, restored, cont)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("continuations diverged:\n  original %+v\n  restored %+v", a, b)
	}
}

// TestRestoreRejectsCorruption: bit flips and truncation fail the checksum
// or the structural decode — never a silent half-restore.
func TestRestoreRejectsCorruption(t *testing.T) {
	c, err := New(snapCfg())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, c, []func(*Controller) ([]Group, error){readyOp(0, 1, 1), readyOp(1, 1, 1)})
	snap := c.Snapshot()

	for _, i := range []int{0, 4, len(snap) / 2, len(snap) - 1} {
		bad := append([]byte(nil), snap...)
		bad[i] ^= 0x40
		if _, err := Restore(bad); err == nil {
			t.Fatalf("corrupted byte %d accepted", i)
		}
	}
	if _, err := Restore(snap[:len(snap)-3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := Restore(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

// TestSnapshotQuickCheck drives random op sequences and checks the round
// trip property on every intermediate state.
func TestSnapshotQuickCheck(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{N: 5, P: 2, Window: 5})
		if err != nil {
			return false
		}
		iters := make([]int, 5)
		for i := 0; i < int(nOps%64); i++ {
			w := rng.Intn(5)
			switch rng.Intn(10) {
			case 0:
				c.Fail(w)
			case 1:
				if !c.IsAlive(w) {
					if err := c.Rejoin(w); err != nil {
						return false
					}
				}
			case 2:
				c.PurgeSignal(w)
			default:
				if c.IsAlive(w) && !c.IsQueued(w) {
					iters[w]++
					if _, err := c.Ready(Signal{Worker: w, Iter: iters[w], Now: float64(i)}); err != nil {
						return false
					}
				}
			}
		}
		snap := c.Snapshot()
		r, err := Restore(snap)
		if err != nil {
			return false
		}
		return bytes.Equal(snap, r.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildFromSignals: the cold path reconstructs a working controller
// from re-sent signals, tolerating duplicates, and forms the same groups a
// fresh controller fed the deduplicated sequence would.
func TestRebuildFromSignals(t *testing.T) {
	cfg := Config{N: 4, P: 2}
	signals := []Signal{
		{Worker: 2, Iter: 5, Now: 1},
		{Worker: 0, Iter: 3, Now: 2},
		{Worker: 2, Iter: 5, Now: 3}, // duplicate re-send: ignored
		{Worker: 9, Iter: 1, Now: 4}, // out of range: ignored
		{Worker: 1, Iter: 4, Now: 5},
	}
	c, groups, err := Rebuild(cfg, signals)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("rebuilt controller formed %d groups, want 1", len(groups))
	}
	if got := groups[0].Members; !reflect.DeepEqual(got, []int{2, 0}) {
		t.Fatalf("rebuilt group %v, want [2 0] (FIFO over deduped signals)", got)
	}
	if c.IsQueued(2) || c.IsQueued(0) {
		t.Fatal("grouped members still queued after rebuild")
	}
	if c.QueueDepth() != 1 || !c.IsQueued(1) {
		t.Fatalf("want worker 1 queued after rebuild, queue len %d", c.QueueDepth())
	}
	// An empty signal set cold-starts an empty controller.
	c2, groups2, err := Rebuild(cfg, nil)
	if err != nil || len(groups2) != 0 || c2.QueueDepth() != 0 {
		t.Fatalf("empty rebuild: %v %d %d", err, len(groups2), c2.QueueDepth())
	}
}

// TestRejoinEdgeCases: re-admitting a worker that never failed is an error
// (a tracking bug in the caller), as is an out-of-range id; a real rejoin
// works and is visible in liveness.
func TestRejoinEdgeCases(t *testing.T) {
	c, err := New(Config{N: 3, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Rejoin(1); err == nil {
		t.Fatal("rejoin of an alive worker accepted")
	}
	if err := c.Rejoin(-1); err == nil {
		t.Fatal("rejoin of rank -1 accepted")
	}
	if err := c.Rejoin(3); err == nil {
		t.Fatal("rejoin beyond N accepted")
	}
	c.Fail(1)
	if c.IsAlive(1) || c.AliveCount() != 2 {
		t.Fatal("fail not recorded")
	}
	if err := c.Rejoin(1); err != nil {
		t.Fatal(err)
	}
	if !c.IsAlive(1) || c.AliveCount() != 3 {
		t.Fatal("rejoin not recorded")
	}
	if err := c.Rejoin(1); err == nil {
		t.Fatal("double rejoin accepted")
	}
}

// TestPurgeSignalMidGroup: purging removes exactly the queued signal — a
// worker whose signal was already consumed by group formation has nothing to
// purge, and purging must not break subsequent grouping.
func TestPurgeSignalMidGroup(t *testing.T) {
	c, err := New(Config{N: 4, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ready(Signal{Worker: 0, Iter: 1}); err != nil {
		t.Fatal(err)
	}
	if !c.IsQueued(0) {
		t.Fatal("signal not queued")
	}
	if !c.PurgeSignal(0) {
		t.Fatal("purge of a queued signal reported nothing removed")
	}
	if c.IsQueued(0) || c.QueueDepth() != 0 {
		t.Fatal("purge left the signal behind")
	}
	if c.PurgeSignal(0) {
		t.Fatal("second purge removed a phantom signal")
	}
	// A purged worker may signal again without tripping the duplicate check.
	gs, err := c.Ready(Signal{Worker: 0, Iter: 2})
	if err != nil || len(gs) != 0 {
		t.Fatalf("re-signal after purge: %v %v", gs, err)
	}
	// Members of a formed group are no longer queued: nothing to purge.
	gs, err = c.Ready(Signal{Worker: 1, Iter: 1})
	if err != nil || len(gs) != 1 {
		t.Fatalf("group formation: %v %v", gs, err)
	}
	if c.PurgeSignal(0) || c.PurgeSignal(1) {
		t.Fatal("purged a signal already consumed by group formation")
	}
	// Out-of-range purge is a no-op, not a panic.
	if c.PurgeSignal(-1) || c.PurgeSignal(99) {
		t.Fatal("out-of-range purge reported success")
	}
}

// TestIsQueuedDrain: IsQueued distinguishes a retransmitted signal (still in
// queue) from a consumed one, and Drain flushes whatever groups the current
// queue supports — the two primitives the failover path is built on.
func TestIsQueuedDrain(t *testing.T) {
	c, err := New(Config{N: 4, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.IsQueued(0) || c.IsQueued(-1) || c.IsQueued(7) {
		t.Fatal("phantom queued signals")
	}
	drive(t, c, []func(*Controller) ([]Group, error){readyOp(0, 1, 1), readyOp(1, 1, 1)})
	if !c.IsQueued(0) || !c.IsQueued(1) {
		t.Fatal("queued signals not visible")
	}
	if gs := c.FlushGroups(); len(gs) != 0 {
		t.Fatalf("drain formed a group from %d < P signals", 2)
	}
	// Shrinking the alive set (P clamps to survivors) makes the queue
	// formable; Fail's internal drain flushes it.
	if gs := c.Fail(3); len(gs) != 0 {
		t.Fatalf("first failure formed %+v with 2 signals < effective P", gs)
	}
	gs := c.Fail(2)
	if len(gs) != 1 || !reflect.DeepEqual(gs[0].Members, []int{0, 1}) {
		t.Fatalf("drain after shrink: %+v", gs)
	}
	if c.IsQueued(0) || c.IsQueued(1) {
		t.Fatal("drained members still queued")
	}
	if gs := c.FlushGroups(); len(gs) != 0 {
		t.Fatalf("drain on an empty queue formed %+v", gs)
	}
}
