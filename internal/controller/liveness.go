package controller

import (
	"fmt"

	"partialreduce/internal/trace"
)

// Liveness tracking and failure recovery. The paper's §4 observes that the
// central controller is the natural place for fault tolerance: because model
// data never flows through it, excluding a failed worker is a pure metadata
// operation — purge its queued signal, stop grouping it, and keep the
// sync-graph connectivity judgement to the survivors. These methods implement
// that, plus checkpoint-rejoin re-admission. Deciding that a silent worker is
// dead is not done here: each runtime owns that detector (DESIGN.md, "Fault
// tolerance", lists the three) and reports its verdict through ReportFailure.

// ReportFailure declares worker dead: its queued signal (if any) is purged
// and it is excluded from all future groups. Idempotent; reports about an
// already-dead worker return false.
func (c *Controller) ReportFailure(worker int) bool {
	if worker < 0 || worker >= c.cfg.N || !c.alive[worker] {
		return false
	}
	c.alive[worker] = false
	c.aliveN--
	// A draining worker that dies mid-hand-off is a failure, not a clean
	// decommission.
	c.draining[worker] = false
	c.stats.Failures++
	c.PurgeSignal(worker)
	c.refreshMaxIter()
	c.bumpEpoch()
	c.tracer.Instant(trace.KWorkerDead, int32(worker), -1, 0, 0)
	return true
}

// Fail declares worker dead (as ReportFailure) and returns the groups formed
// as an immediate consequence: shrinking the surviving-worker count shrinks
// the effective group size, which can let an existing queue fill a group.
func (c *Controller) Fail(worker int) []Group {
	if !c.ReportFailure(worker) {
		return nil
	}
	return c.drainGroups()
}

// PurgeSignal removes worker's queued ready signal, if any, so the worker
// may signal again later without tripping the duplicate check. Runtimes use
// this when releasing stranded tail workers to proceed solo: the released
// worker recomputes and re-signals, and its stale signal must not linger in
// the queue (a stale entry could later form a group with a worker that is no
// longer waiting for one). Reports whether a signal was removed.
func (c *Controller) PurgeSignal(worker int) bool {
	if worker < 0 || worker >= c.cfg.N || !c.queued[worker] {
		return false
	}
	c.queued[worker] = false
	keep := c.queue[:0]
	for _, s := range c.queue {
		if s.Worker != worker {
			keep = append(keep, s)
		}
	}
	c.queue = keep
	return true
}

// AbortGroup records that a formed group g lost member dead mid-collective:
// the dead worker is excluded (as ReportFailure) and the abort is counted.
// dead = -1 is a stuck op torn down with nobody condemned. The surviving
// members are expected to roll back to their pre-group state
// and re-signal ready; their signals will be accepted because group
// formation already cleared their queued flags. It returns the groups formed
// immediately as a consequence (the purge can unblock a deferred bridge
// group).
func (c *Controller) AbortGroup(g Group, dead int) []Group {
	c.stats.GroupsAborted++
	c.tracer.Instant(trace.KGroupAborted, trace.ControllerTrack, int32(g.Iter), int64(c.stats.GroupsFormed), int64(dead))
	c.ReportFailure(dead)
	return c.drainGroups()
}

// Rejoin re-admits worker after a checkpoint-based restart: it becomes
// eligible for grouping again the next time it signals ready. Re-admitting
// an alive worker is an error (it indicates a tracking bug in the caller).
func (c *Controller) Rejoin(worker int) error {
	if worker < 0 || worker >= c.cfg.N {
		return fmt.Errorf("controller: worker %d out of range [0,%d)", worker, c.cfg.N)
	}
	if !c.member[worker] {
		return fmt.Errorf("controller: rejoin: worker %d: %w (Join instead)", worker, ErrNotMember)
	}
	if c.alive[worker] {
		return fmt.Errorf("controller: worker %d is not dead", worker)
	}
	c.alive[worker] = true
	c.aliveN++
	c.stats.Rejoins++
	c.refreshMaxIter()
	c.bumpEpoch()
	c.tracer.Instant(trace.KWorkerRejoin, int32(worker), -1, 0, 0)
	return nil
}

// IsAlive reports whether worker is currently believed up.
func (c *Controller) IsAlive(worker int) bool {
	return worker >= 0 && worker < c.cfg.N && c.alive[worker]
}

// Alive returns a copy of the per-worker liveness vector.
func (c *Controller) Alive() []bool {
	out := make([]bool, len(c.alive))
	copy(out, c.alive)
	return out
}
