package hetero

import (
	"fmt"
	"sort"

	"partialreduce/internal/sim"
)

// CrashEvent is one scheduled fail-stop in a simulated run: worker dies at
// virtual time At and never comes back (§4's exclusion, as in the live
// runtime). Crashes are part of the workload description, not the strategy:
// the same schedule replayed against P-Reduce and All-Reduce exposes the
// paper's §4 asymmetry — partial reduce excludes the corpse and keeps
// training, a global collective cannot.
type CrashEvent struct {
	Worker int
	At     sim.Time
}

// CrashSchedule is a deterministic fail-stop schedule. It is data, so the
// same schedule value always produces the same simulated faults regardless
// of seed or host — the property the seed-replay tests pin down.
type CrashSchedule []CrashEvent

// Validate checks the schedule against a cluster of n workers: events must
// name valid workers at non-negative times, a worker may crash at most once,
// and at least minAlive workers must survive.
func (s CrashSchedule) Validate(n, minAlive int) error {
	seen := make(map[int]bool, len(s))
	for _, e := range s {
		if e.Worker < 0 || e.Worker >= n {
			return fmt.Errorf("hetero: crash worker %d outside [0,%d)", e.Worker, n)
		}
		if e.At < 0 {
			return fmt.Errorf("hetero: crash time %v is negative", e.At)
		}
		if seen[e.Worker] {
			return fmt.Errorf("hetero: worker %d crashes twice", e.Worker)
		}
		seen[e.Worker] = true
	}
	if n-len(s) < minAlive {
		return fmt.Errorf("hetero: schedule leaves %d workers alive, need >= %d",
			n-len(s), minAlive)
	}
	return nil
}

// RandomCrashes draws a seeded schedule: each of the n workers independently
// crashes with probability rate, at a time uniform in (0, horizon). Worker 0
// is spared so at least one worker always survives even at rate 1. The draw
// is a pure function of (n, rate, horizon, seed); events are returned sorted
// by time so the schedule is also stable under iteration.
func RandomCrashes(n int, rate, horizon float64, seed int64) CrashSchedule {
	if rate <= 0 || horizon <= 0 {
		return nil
	}
	var s CrashSchedule
	for w := 1; w < n; w++ {
		rng := sim.Stream(seed, int64(w)+0x7C4A)
		if rng.Float64() < rate {
			s = append(s, CrashEvent{Worker: w, At: rng.Float64() * horizon})
		}
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].At != s[j].At {
			return s[i].At < s[j].At
		}
		return s[i].Worker < s[j].Worker
	})
	return s
}
