package hetero

import (
	"fmt"
	"slices"

	"partialreduce/internal/sim"
)

// PartitionEvent is one timed network partition: from time From until Until
// (seconds; virtual time in the simulator, seconds since the fault world was
// built in the live transport), the workers in Ranks cannot exchange frames
// with the workers outside it. In the simulator a P-Reduce group whose
// members straddle the boundary cannot complete its collective, and the
// control plane stays reachable; the live Faulty transport drops every frame
// that crosses the boundary on the endpoints it wraps.
type PartitionEvent struct {
	Ranks []int
	From  sim.Time
	Until sim.Time // 0 means the partition never heals
}

// Active reports whether the partition is in force at time t.
func (e PartitionEvent) Active(t sim.Time) bool {
	return t >= e.From && (e.Until == 0 || t < e.Until)
}

// Splits reports whether members straddle the partition boundary: at least
// one member inside Ranks and at least one outside. It runs per simulated
// group attempt and per live frame, so it scans instead of building a set.
func (e PartitionEvent) Splits(members []int) bool {
	var inside, outside bool
	for _, m := range members {
		if slices.Contains(e.Ranks, m) {
			inside = true
		} else {
			outside = true
		}
		if inside && outside {
			return true
		}
	}
	return false
}

// PartitionSchedule is a deterministic partition schedule. Like
// CrashSchedule it is data: the same value always produces the same simulated
// faults, which is what makes the partition sweeps byte-reproducible.
type PartitionSchedule []PartitionEvent

// Validate checks the schedule against a cluster of n workers: every event
// must name a non-empty set of distinct valid workers, start at a
// non-negative time, and either never heal (Until == 0) or heal strictly
// after it starts.
func (s PartitionSchedule) Validate(n int) error {
	for i, e := range s {
		if len(e.Ranks) == 0 {
			return fmt.Errorf("hetero: partition %d has no ranks", i)
		}
		seen := make(map[int]bool, len(e.Ranks))
		for _, r := range e.Ranks {
			if r < 0 || r >= n {
				return fmt.Errorf("hetero: partition %d rank %d outside [0,%d)", i, r, n)
			}
			if seen[r] {
				return fmt.Errorf("hetero: partition %d lists rank %d twice", i, r)
			}
			seen[r] = true
		}
		if e.From < 0 {
			return fmt.Errorf("hetero: partition %d starts at negative time %v", i, e.From)
		}
		if e.Until != 0 && e.Until <= e.From {
			return fmt.Errorf("hetero: partition %d heals at %v, not after start %v", i, e.Until, e.From)
		}
	}
	return nil
}

// SplitsAt reports whether any active partition separates members at time t.
func (s PartitionSchedule) SplitsAt(members []int, t sim.Time) bool {
	for _, e := range s {
		if e.Active(t) && e.Splits(members) {
			return true
		}
	}
	return false
}
