package hetero

import "fmt"

// Elastic membership schedules. Like CrashSchedule, an ElasticSchedule is
// pure data: the same schedule value replayed against any backend produces
// the same joins and drains. Events trigger on a cluster-wide count
// (AfterUpdates) rather than on a clock: the simulator counts applied
// updates, the live runtime dispatched groups (its host never sees an
// average land). The two agree under lockstep, which is what lets one seeded
// 8→12→6 schedule run through both backends and land on the same totals.

// ElasticKind distinguishes scale-out joins from graceful departures.
type ElasticKind uint8

const (
	// ElasticJoin admits a new rank: it bootstraps the freshest
	// checkpointed model from a live donor, then starts training.
	ElasticJoin ElasticKind = iota
	// ElasticDrain gracefully removes a rank: it finishes its in-flight
	// group, is excluded from formation, and decommissions cleanly.
	ElasticDrain
)

// String names the kind.
func (k ElasticKind) String() string {
	if k == ElasticJoin {
		return "join"
	}
	return "drain"
}

// MarshalText names the kind, so a schedule file reads "join" and "drain".
func (k ElasticKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses "join" or "drain" and refuses anything else.
func (k *ElasticKind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "join":
		*k = ElasticJoin
	case "drain":
		*k = ElasticDrain
	default:
		return fmt.Errorf("hetero: unknown elastic kind %q", b)
	}
	return nil
}

// ElasticEvent is one membership change: Kind fires for Worker once the
// cluster-wide count reaches AfterUpdates.
type ElasticEvent struct {
	Worker       int
	AfterUpdates int
	Kind         ElasticKind
}

// ElasticSchedule is a deterministic membership-change schedule, kept
// sorted by trigger count (ties: joins before drains, then by worker).
type ElasticSchedule []ElasticEvent

// Validate checks the schedule for a world of capacity n whose ranks
// [0, initial) are founding members: joins must name capacity ranks that
// are not currently members, drains must name current members (a joined
// rank may later drain; a drained slot may be re-joined), and the active
// count must never fall below 2 (a group needs two). Events must be
// ordered by AfterUpdates.
func (s ElasticSchedule) Validate(n, initial int) error {
	if initial < 2 || initial > n {
		return fmt.Errorf("hetero: elastic schedule needs 2 <= initial <= n, got initial=%d n=%d", initial, n)
	}
	member := make([]bool, n)
	for w := 0; w < initial; w++ {
		member[w] = true
	}
	active := initial
	lastAt := 0
	for i, e := range s {
		if e.Worker < 0 || e.Worker >= n {
			return fmt.Errorf("hetero: elastic event %d: worker %d outside [0,%d)", i, e.Worker, n)
		}
		if e.AfterUpdates <= 0 {
			return fmt.Errorf("hetero: elastic event %d: trigger %d must be positive", i, e.AfterUpdates)
		}
		if e.AfterUpdates < lastAt {
			return fmt.Errorf("hetero: elastic events out of order at %d (%d < %d)", i, e.AfterUpdates, lastAt)
		}
		lastAt = e.AfterUpdates
		switch e.Kind {
		case ElasticJoin:
			if member[e.Worker] {
				return fmt.Errorf("hetero: elastic event %d: join of existing member %d", i, e.Worker)
			}
			member[e.Worker] = true
			active++
		case ElasticDrain:
			if !member[e.Worker] {
				return fmt.Errorf("hetero: elastic event %d: drain of non-member %d", i, e.Worker)
			}
			member[e.Worker] = false
			active--
			if active < 2 {
				return fmt.Errorf("hetero: elastic event %d: drain of %d leaves %d active, need >= 2", i, e.Worker, active)
			}
		default:
			return fmt.Errorf("hetero: elastic event %d: unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// ScaleSchedule builds the canonical initial→peak→final staircase: ranks
// [initial, peak) join one per step updates starting at afterUpdates, then
// once the joins are in, members drain one per step (highest first, never
// below final). ScaleSchedule(8, 12, 6, 20, 10) is the paper-style
// 8→12→6 elasticity sweep. Returns nil when the parameters describe no
// change.
func ScaleSchedule(initial, peak, final, afterUpdates, step int) ElasticSchedule {
	if step <= 0 || afterUpdates <= 0 {
		return nil
	}
	var s ElasticSchedule
	at := afterUpdates
	for w := initial; w < peak; w++ {
		s = append(s, ElasticEvent{Worker: w, AfterUpdates: at, Kind: ElasticJoin})
		at += step
	}
	for w := peak - 1; w >= final; w-- {
		s = append(s, ElasticEvent{Worker: w, AfterUpdates: at, Kind: ElasticDrain})
		at += step
	}
	return s
}
