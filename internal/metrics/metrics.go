// Package metrics defines the measurements the paper's evaluation reports:
// total run time to a convergence threshold, number of updates until
// convergence (statistical efficiency), average time per update (hardware
// efficiency), and accuracy-vs-time curves for the convergence figures.
package metrics

import "fmt"

// Point is one evaluation of the cluster-average model.
type Point struct {
	Time     float64 // virtual seconds
	Updates  int     // updates completed when evaluated
	Accuracy float64 // test accuracy of the averaged model
}

// CommStats aggregates a run's data-plane traffic. The live runtime measures
// it directly from its collectives (collective.OpStats); the simulator models
// it from the message counts of each synchronization primitive. Segment and
// per-phase fields are only populated by measured (live) runs.
type CommStats struct {
	Ops       int64 // collective operations executed
	BytesSent int64 // payload bytes sent across all workers
	BytesRecv int64 // payload bytes received across all workers
	Segments  int64 // pipeline segments shipped (live runtime only)
	// Retries, Timeouts, and Aborts count the robustness events of the run's
	// collectives: attempts re-run after a receive deadline expired, receive
	// deadlines that fired, and collectives abandoned after exhausting their
	// retry budget. The live runtime measures them; the simulator models them
	// from its partition schedule.
	Retries  int64
	Timeouts int64
	Aborts   int64
	// ReduceScatterS and AllGatherS are cumulative seconds spent in each
	// ring phase across all workers. The live runtime measures them from
	// its collectives (wall clock); the simulator models them from the
	// α–β ring cost: each executed ring among g members charges
	// g·ring/2 virtual seconds per phase (the two phases are symmetric —
	// (g−1) steps each), so live-vs-sim phase-time comparison works.
	ReduceScatterS float64
	AllGatherS     float64
}

// Add folds o into s.
func (s *CommStats) Add(o CommStats) {
	s.Ops += o.Ops
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.Segments += o.Segments
	s.Retries += o.Retries
	s.Timeouts += o.Timeouts
	s.Aborts += o.Aborts
	s.ReduceScatterS += o.ReduceScatterS
	s.AllGatherS += o.AllGatherS
}

// Result summarizes one training run.
type Result struct {
	Strategy  string
	Workload  string
	Converged bool
	// RunTime is the virtual seconds until the threshold was reached, or
	// until the run was cut off (MaxTime/MaxUpdates) if it never converged.
	RunTime float64
	// Updates is the number of synchronization updates until convergence
	// (or cutoff): one per All-Reduce round, per P-Reduce group operation,
	// per PS push, per AD-PSGD pairwise average.
	Updates int
	// FinalAccuracy is the last evaluated accuracy.
	FinalAccuracy float64
	// Curve is the accuracy trajectory.
	Curve []Point
	// Comms is the run's aggregate data-plane traffic.
	Comms CommStats
}

// PerUpdate returns the average seconds per update, the paper's hardware
// efficiency metric. It returns 0 before any update completes.
func (r *Result) PerUpdate() float64 {
	if r.Updates == 0 {
		return 0
	}
	return r.RunTime / float64(r.Updates)
}

// String renders a one-line summary.
func (r *Result) String() string {
	status := "converged"
	if !r.Converged {
		status = "N/A"
	}
	return fmt.Sprintf("%-18s runtime=%8.1fs updates=%6d per-update=%7.3fs acc=%.3f (%s)",
		r.Strategy, r.RunTime, r.Updates, r.PerUpdate(), r.FinalAccuracy, status)
}

// Tracker accumulates a run's metrics. Trainers call Update after every
// synchronization and Observe after every evaluation; Done seals the result.
type Tracker struct {
	res       Result
	threshold float64
}

// NewTracker returns a tracker targeting the given test-accuracy threshold.
func NewTracker(strategy, workload string, threshold float64) *Tracker {
	return &Tracker{
		res:       Result{Strategy: strategy, Workload: workload},
		threshold: threshold,
	}
}

// Update records one completed synchronization update at virtual time now.
func (t *Tracker) Update(now float64) {
	if t.res.Converged {
		return
	}
	t.res.Updates++
	t.res.RunTime = now
}

// Updates returns the updates recorded so far.
func (t *Tracker) Updates() int { return t.res.Updates }

// AddComms folds one synchronization primitive's traffic into the run total.
// Unlike Update it keeps accumulating after convergence: traffic already on
// the wire is still traffic.
func (t *Tracker) AddComms(s CommStats) { t.res.Comms.Add(s) }

// Observe records an evaluation and reports whether the threshold has now
// been reached for the first time (the trainer should stop).
func (t *Tracker) Observe(now float64, accuracy float64) bool {
	if t.res.Converged {
		return false
	}
	t.res.Curve = append(t.res.Curve, Point{Time: now, Updates: t.res.Updates, Accuracy: accuracy})
	t.res.FinalAccuracy = accuracy
	if accuracy >= t.threshold {
		t.res.Converged = true
		t.res.RunTime = now
		return true
	}
	return false
}

// Converged reports whether the threshold has been reached.
func (t *Tracker) Converged() bool { return t.res.Converged }

// Cutoff marks the run as ended at now without convergence (horizon or
// update-budget exhausted). It is a no-op after convergence.
func (t *Tracker) Cutoff(now float64) {
	if !t.res.Converged {
		t.res.RunTime = now
	}
}

// Result returns the sealed result.
func (t *Tracker) Result() *Result {
	r := t.res // copy
	return &r
}
