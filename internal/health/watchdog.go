// Package health is the run's self-monitoring plane: a deterministic
// SLO rule engine (Watchdog) evaluated on a fixed cadence over
// metrics.Instruments snapshots plus controller introspection, and a
// flight recorder (Recorder) that captures a postmortem bundle — a
// directory holding a manifest, the firing rule with its evaluated
// values, the full metrics snapshot, the straggler scoreboard, the
// always-on trace ring and the run config — the moment a rule fires.
//
// The paper's anomalies (straggler episodes, retry storms, sync-graph
// partitions) are transient: by the time an operator reacts to a
// dashboard, the evidence is gone. The watchdog closes that gap: it
// detects the anomaly itself and snapshots the black box while the
// anomaly is still in the ring. The engine is pure state machine — no
// clocks, no goroutines, no I/O: the live runtime's service core calls
// Eval on its health clock, and a test can drive it eval by eval.
package health

import (
	"sync"

	"partialreduce/internal/metrics"
)

// Rule enumerates the watchdog's SLO rules. Each rule is enabled by a
// positive threshold in SLO and breaches when its evaluated value
// reaches the threshold (value >= threshold, uniformly).
type Rule uint8

const (
	// RStalenessP95 fires when the 95th-percentile observed staleness
	// reaches SLO.StalenessP95 iterations — the bounded-staleness claim
	// of the paper is being violated.
	RStalenessP95 Rule = iota
	// RBlameSpike fires when any worker's recent-blame EWMA (the
	// straggler scoreboard signal) reaches SLO.BlameRecent seconds — a
	// straggler episode is in progress right now.
	RBlameSpike
	// RRetryStorm fires when the collective retry+timeout count grows by
	// at least SLO.RetryStorm between consecutive evaluations — the
	// data plane is fighting a partition or a flapping link.
	RRetryStorm
	// RSyncPartition fires when the windowed sync-graph splits into at
	// least SLO.SyncComponents connected components — subsets of workers
	// have stopped synchronizing with each other (group freeze risk).
	RSyncPartition
	// RQueueStall fires when the controller's ready-queue depth reaches
	// SLO.QueueDepth — workers are signaling but groups are not forming.
	RQueueStall
	// REpochChurn fires when the membership epoch advances by at least
	// SLO.EpochChurn between consecutive evaluations — failure, join or
	// drain thrash.
	REpochChurn
	// RHeartbeatSilence fires when no new group has formed for
	// SLO.Silence seconds while at least two workers are still active —
	// global progress has stopped.
	RHeartbeatSilence

	ruleCount // internal: table size
)

// ruleNames maps rules to the stable slugs used in bundle file names,
// /healthz bodies, and the preduce_watchdog_* rule label.
var ruleNames = [ruleCount]string{
	RStalenessP95:     "staleness-p95",
	RBlameSpike:       "blame-spike",
	RRetryStorm:       "retry-storm",
	RSyncPartition:    "sync-partition",
	RQueueStall:       "queue-stall",
	REpochChurn:       "epoch-churn",
	RHeartbeatSilence: "heartbeat-silence",
}

// String returns the stable slug of r ("rule-?" for unknown values).
func (r Rule) String() string {
	if int(r) < len(ruleNames) && ruleNames[r] != "" {
		return ruleNames[r]
	}
	return "rule-?"
}

// SLO holds the declarative thresholds, one per rule. A zero (or
// negative) threshold disables its rule; every rule breaches when its
// evaluated value >= the threshold.
type SLO struct {
	StalenessP95   int64   // iterations: staleness p95 at or above this
	BlameRecent    float64 // seconds: any worker's recent-blame EWMA at or above this
	RetryStorm     int64   // events: retries+timeouts delta per evaluation at or above this
	SyncComponents int64   // components: sync-graph component count at or above this (2 = any split)
	QueueDepth     int64   // workers: ready-queue depth at or above this
	EpochChurn     int64   // bumps: membership-epoch delta per evaluation at or above this
	Silence        float64 // seconds: no group formed for this long with >= 2 active workers
}

// The hysteresis: fireCount consecutive breaching evaluations arm a rule
// into firing, clearCount consecutive clean evaluations re-arm it. The
// asymmetry means a flapping signal neither fires on one bad sample nor
// re-fires the instant it dips under the threshold.
const (
	fireCount  = 2
	clearCount = 4
)

// Sample is one evaluation's input: the instruments snapshot plus the
// two controller introspection values that must be read inside the
// controller's serialization domain.
type Sample struct {
	Snap       *metrics.InstrumentsSnapshot
	QueueDepth int // controller ready-queue depth now
	Active     int // live, unfinished workers (gates heartbeat-silence)
}

// Breach is one rule transitioning into the firing state: the rule, the
// value that armed it, its threshold, the evaluation clock time, and
// the evaluation sequence number.
type Breach struct {
	Rule      Rule
	Value     float64
	Threshold float64
	At        float64
	Seq       uint64
}

// RuleState is one rule's externally visible state, for /healthz and
// the preduce_watchdog_* series.
type RuleState struct {
	Rule      string  `json:"rule"`
	Enabled   bool    `json:"enabled"`
	Firing    bool    `json:"firing"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Fires     uint64  `json:"fires"`
	LastFired float64 `json:"last_fired"`
}

// State is a consistent copy of the watchdog's externally visible
// state.
type State struct {
	Evals      uint64      `json:"evals"`
	LastEvalAt float64     `json:"last_eval_at"`
	Firing     []string    `json:"firing"`
	Rules      []RuleState `json:"rules"`
}

// Healthy reports whether no rule is firing.
func (s State) Healthy() bool { return len(s.Firing) == 0 }

// Ready reports whether the watchdog has completed at least one
// evaluation (the /readyz signal).
func (s State) Ready() bool { return s.Evals > 0 }

// Watchdog is the deterministic rule engine. It holds no clock and
// performs no I/O: the host calls Eval on its own cadence with its own
// clock reading, and Eval returns the rules that newly fired this
// evaluation (empty almost always). All methods are safe for concurrent
// use; the same Eval calls with the same inputs fire the same rules.
type Watchdog struct {
	mu  sync.Mutex
	slo SLO

	evals      uint64
	lastEvalAt float64

	breachStreak [ruleCount]int
	clearStreak  [ruleCount]int
	firing       [ruleCount]bool
	fires        [ruleCount]uint64
	lastValue    [ruleCount]float64
	lastFired    [ruleCount]float64

	// Baselines for the delta rules (retry-storm, epoch-churn) and the
	// progress clock for heartbeat-silence. primed is false until the
	// first Eval seeds them, so instruments that already carry history
	// when the watchdog is armed do not fire on their backlog.
	primed       bool
	lastRetryish int64
	lastEpoch    int64
	lastGroups   int64
	progressAt   float64
}

// New returns a watchdog evaluating slo.
func New(slo SLO) *Watchdog { return &Watchdog{slo: slo} }

// threshold returns r's configured threshold (<= 0 disables).
func (w *Watchdog) threshold(r Rule) float64 {
	switch r {
	case RStalenessP95:
		return float64(w.slo.StalenessP95)
	case RBlameSpike:
		return w.slo.BlameRecent
	case RRetryStorm:
		return float64(w.slo.RetryStorm)
	case RSyncPartition:
		return float64(w.slo.SyncComponents)
	case RQueueStall:
		return float64(w.slo.QueueDepth)
	case REpochChurn:
		return float64(w.slo.EpochChurn)
	case RHeartbeatSilence:
		return w.slo.Silence
	}
	return 0
}

// Eval runs one evaluation at clock time now over s and returns the
// rules that newly transitioned into firing (one Breach each). A rule
// already firing does not re-breach until clearCount consecutive clean
// evaluations re-arm it — the exactly-one-bundle-per-anomaly property.
// Nil-safe: a nil watchdog (monitoring off) returns nil.
func (w *Watchdog) Eval(now float64, s Sample) []Breach {
	if w == nil {
		return nil
	}
	snap := s.Snap
	if snap == nil {
		snap = (*metrics.Instruments)(nil).Snapshot()
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	retryish := snap.Comms.Retries + snap.Comms.Timeouts
	if !w.primed {
		w.primed = true
		w.lastRetryish = retryish
		w.lastEpoch = snap.Epoch
		w.lastGroups = snap.GroupsFormed
		w.progressAt = now
	}
	if snap.GroupsFormed > w.lastGroups {
		w.lastGroups = snap.GroupsFormed
		w.progressAt = now
	}

	maxEWMA := 0.0
	for _, v := range snap.BlameEWMA {
		if v > maxEWMA {
			maxEWMA = v
		}
	}

	values := [ruleCount]float64{
		RStalenessP95:     float64(snap.Staleness.Quantile(0.95)),
		RBlameSpike:       maxEWMA,
		RRetryStorm:       float64(retryish - w.lastRetryish),
		RSyncPartition:    float64(snap.SyncComponents),
		RQueueStall:       float64(s.QueueDepth),
		REpochChurn:       float64(snap.Epoch - w.lastEpoch),
		RHeartbeatSilence: now - w.progressAt,
	}
	w.lastRetryish = retryish
	w.lastEpoch = snap.Epoch

	w.evals++
	w.lastEvalAt = now

	var fired []Breach
	for r := Rule(0); r < ruleCount; r++ {
		thr := w.threshold(r)
		w.lastValue[r] = values[r]
		if thr <= 0 {
			continue
		}
		breaching := values[r] >= thr
		if r == RHeartbeatSilence && s.Active < 2 {
			// A run winding down (or solo) is not silent, it is done.
			breaching = false
		}
		if breaching {
			w.breachStreak[r]++
			w.clearStreak[r] = 0
			if !w.firing[r] && w.breachStreak[r] >= fireCount {
				w.firing[r] = true
				w.fires[r]++
				w.lastFired[r] = now
				fired = append(fired, Breach{
					Rule: r, Value: values[r], Threshold: thr, At: now, Seq: w.evals,
				})
			}
		} else {
			w.breachStreak[r] = 0
			w.clearStreak[r]++
			if w.firing[r] && w.clearStreak[r] >= clearCount {
				w.firing[r] = false
			}
		}
	}
	return fired
}

// State returns a consistent copy of the watchdog's visible state.
// Nil-safe: a nil watchdog reports zero evaluations and no rules.
func (w *Watchdog) State() State {
	if w == nil {
		return State{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	st := State{Evals: w.evals, LastEvalAt: w.lastEvalAt}
	for r := Rule(0); r < ruleCount; r++ {
		thr := w.threshold(r)
		rs := RuleState{
			Rule:      r.String(),
			Enabled:   thr > 0,
			Firing:    w.firing[r],
			Value:     w.lastValue[r],
			Threshold: thr,
			Fires:     w.fires[r],
			LastFired: w.lastFired[r],
		}
		st.Rules = append(st.Rules, rs)
		if rs.Firing {
			st.Firing = append(st.Firing, rs.Rule)
		}
	}
	return st
}
