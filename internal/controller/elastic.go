package controller

import (
	"errors"
	"fmt"

	"partialreduce/internal/trace"
)

// Elastic membership: the world view is a versioned set of member ranks
// inside a fixed capacity N. Ranks [Initial, N) start outside the
// membership and Join later after bootstrapping a model from a live peer;
// members leave either abruptly (Fail, PR 1) or gracefully, via
// Drain → Decommission: a draining rank finishes its in-flight group, is
// excluded from all future formation, and hands off without being counted
// as a failure. Every membership change bumps the epoch, which is stamped
// into formed groups and echoed in ready signals so a worker acting on a
// stale world view is rejected deterministically — and harmlessly: a
// stale-epoch rejection never condemns the sender.

// Sentinel errors Ready callers branch on with errors.Is. All three are
// recoverable conditions, not worker faults.
var (
	// ErrStaleEpoch rejects a ready signal stamped with an outdated
	// world-view epoch. The sender should refresh its view (the next
	// group reply carries the current epoch) and re-signal; it is not
	// condemned.
	ErrStaleEpoch = errors.New("stale world-view epoch")
	// ErrNotMember rejects a signal from a rank outside the current
	// membership (never joined, or already decommissioned).
	ErrNotMember = errors.New("not a member of the current world view")
	// ErrDraining rejects a new ready signal from a draining rank: its
	// in-flight group is finished and it must now decommission.
	ErrDraining = errors.New("worker is draining")
)

// Epoch returns the current world-view version. It starts at 1 and bumps
// on every membership change (Join, Drain, Decommission, Fail).
func (c *Controller) Epoch() uint64 { return c.epoch }

// IsMember reports whether rank w belongs to the current world view.
func (c *Controller) IsMember(w int) bool {
	return w >= 0 && w < c.cfg.N && c.member[w]
}

// IsDraining reports whether member w is in graceful drain.
func (c *Controller) IsDraining(w int) bool {
	return w >= 0 && w < c.cfg.N && c.draining[w]
}

// ActiveCount returns the number of ranks eligible for group formation:
// members that are alive and not draining.
func (c *Controller) ActiveCount() int {
	n := 0
	for w := 0; w < c.cfg.N; w++ {
		if c.member[w] && c.alive[w] && !c.draining[w] {
			n++
		}
	}
	return n
}

// refreshActiveMask recomputes the member ∧ alive ∧ ¬draining scratch mask
// (group-filter connectivity and adaptive sizing read it) and returns the
// active count.
func (c *Controller) refreshActiveMask() int {
	n := 0
	for w := 0; w < c.cfg.N; w++ {
		a := c.member[w] && c.alive[w] && !c.draining[w]
		c.activeMask[w] = a
		if a {
			n++
		}
	}
	return n
}

// Join admits rank w into the membership. The caller is expected to have bootstrapped the rank's model
// from a live peer already — a joined rank is immediately eligible for
// grouping once it signals ready. Joining a current member is an error; a
// decommissioned rank may Join again.
func (c *Controller) Join(w int) error {
	if w < 0 || w >= c.cfg.N {
		return fmt.Errorf("controller: join: rank %d out of range [0,%d)", w, c.cfg.N)
	}
	if c.member[w] {
		return fmt.Errorf("controller: join: rank %d is already a member", w)
	}
	c.member[w] = true
	c.alive[w] = true
	c.aliveN++
	c.draining[w] = false
	c.epoch++
	c.stats.Joins++
	c.tracer.Instant(trace.KWorkerJoin, int32(w), -1, int64(c.epoch), 0)
	return nil
}

// Drain begins a graceful hand-off for member w: it stays alive to finish
// any in-flight group (a signal already queued may still form one last
// group), but no new signal from it is accepted (ErrDraining) and it is
// excluded from effective group sizing and sync-graph connectivity.
// Shrinking the active set can let the existing queue fill a group, so
// Drain returns any groups formed as an immediate consequence.
func (c *Controller) Drain(w int) ([]Group, error) {
	if w < 0 || w >= c.cfg.N {
		return nil, fmt.Errorf("controller: drain: rank %d out of range [0,%d)", w, c.cfg.N)
	}
	if !c.member[w] {
		return nil, fmt.Errorf("controller: drain: rank %d: %w", w, ErrNotMember)
	}
	if !c.alive[w] {
		return nil, fmt.Errorf("controller: drain: rank %d is dead", w)
	}
	if c.draining[w] {
		return nil, fmt.Errorf("controller: drain: rank %d is already draining", w)
	}
	c.draining[w] = true
	c.epoch++
	c.stats.Drains++
	c.tracer.Instant(trace.KWorkerDrain, int32(w), -1, int64(c.epoch), 0)
	return c.drainGroups(), nil
}

// Decommission completes a draining rank's departure: it leaves the
// membership cleanly, without being counted as a failure, and its capacity
// slot becomes available for a future Join. Like Drain it returns any
// groups formed as a consequence.
func (c *Controller) Decommission(w int) ([]Group, error) {
	if w < 0 || w >= c.cfg.N {
		return nil, fmt.Errorf("controller: decommission: rank %d out of range [0,%d)", w, c.cfg.N)
	}
	if !c.member[w] {
		return nil, fmt.Errorf("controller: decommission: rank %d: %w", w, ErrNotMember)
	}
	if !c.draining[w] {
		return nil, fmt.Errorf("controller: decommission: rank %d is not draining", w)
	}
	c.member[w] = false
	c.draining[w] = false
	if c.alive[w] {
		c.alive[w] = false
		c.aliveN--
	}
	c.PurgeSignal(w)
	c.epoch++
	c.stats.Decommissions++
	c.tracer.Instant(trace.KWorkerDecommission, int32(w), -1, int64(c.epoch), 0)
	return c.drainGroups(), nil
}
