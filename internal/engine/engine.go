// Package engine is the unified training-step layer shared by the simulator
// and the live runtime. The paper's claims hinge on the *same*
// synchronization semantics being measured under two lenses — virtual time
// over an analytic cost model, and wall time over real sockets — so the step
// semantics (gradient compute → ready signal → group/collective wait →
// weighted model average → optimizer apply) are defined here exactly once:
//
//   - the worker-step state machine (Machine, StepState) that every P-Reduce
//     execution, simulated or live, advances through;
//   - the aggregation rules (GroupAverage and the uniform/neighbor/pair
//     weight vectors the baselines use), all reducing to
//     tensor.WeightedAverage with a pinned accumulation order;
//   - the drivers: the PReduce strategy (PReduceConfig → NewController → the
//     one sim driver) and RunAllReduceSim, written against cluster.Cluster
//     (virtual clock, rings priced and charged in one call);
//     RunPReduceWorker/RunAllReduceWorker, the live per-rank loops, written
//     against a LiveWorker's transport endpoint and the collective package
//     (wall clock, measured bytes); and ServiceCore, which serves the
//     controller to both.
//
// Strategies and runtimes invoke a driver; they never re-implement the step.
// Adding a strategy is a single-file change against this package.
package engine

import "fmt"

// StepState is one phase of the canonical training step. Every worker,
// simulated or live, advances through these states; Machine enforces that
// only the documented transitions occur, so a refactor that drifts one
// runtime's step order away from the other fails loudly instead of
// silently diverging.
type StepState uint8

const (
	// StateIdle is the pre-run state of a freshly created worker.
	StateIdle StepState = iota
	// StateCompute: the local mini-batch (gradient + local SGD update) runs.
	StateCompute
	// StateReady: the ready signal is issued; the worker waits for the
	// controller's directive (a formed group, or a solo release). Barrier
	// strategies without a controller skip this state.
	StateReady
	// StateReduce: the group collective (ring all-reduce / weighted model
	// average) is in flight.
	StateReduce
	// StateApply: the aggregated model is installed and the loop counter
	// fast-forwards to the group maximum (§3.3.3).
	StateApply
	// StateDone: all iterations completed; terminal.
	StateDone
	// StateDead: fail-stopped; terminal, as §4's exclusion is.
	StateDead
	// StateJoining: an elastic scale-out rank bootstrapping the freshest
	// checkpointed model from a live donor before its first compute.
	StateJoining
	// StateDraining: a gracefully departing rank that finished its
	// in-flight group and is handing off; it no longer signals ready.
	StateDraining
)

var stepStateNames = [...]string{
	StateIdle:     "idle",
	StateCompute:  "compute",
	StateReady:    "ready",
	StateReduce:   "reduce",
	StateApply:    "apply",
	StateDone:     "done",
	StateDead:     "dead",
	StateJoining:  "joining",
	StateDraining: "draining",
}

// String returns the state's name.
func (s StepState) String() string {
	if int(s) < len(stepStateNames) {
		return stepStateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// legalSteps is the transition relation of the step machine. Reading an
// entry: legalSteps[from] lists the states a worker may move to next.
//
//	idle    → compute                      (run start)
//	compute → ready                        (signal sent, controller strategies)
//	compute → reduce                       (barrier strategies: no signal phase)
//	compute → dead                         (fail-stop after the batch)
//	ready   → reduce                       (group dispatched)
//	ready   → compute                      (solo release: proceed unaveraged)
//	ready   → done                         (solo release on the final iteration)
//	ready   → dead                         (fail-stop while queued)
//	reduce  → apply                        (collective completed)
//	reduce  → ready                        (abort/rollback: re-signal same iter)
//	reduce  → dead                         (member died mid-collective)
//	apply   → compute                      (next step)
//	apply   → done                         (iterations exhausted/fast-forwarded)
//	apply   → dead                         (fail-stop between steps)
//	apply   → draining                     (drain lands after the group applies)
//	idle    → joining                      (elastic rank starts bootstrapping)
//	joining → compute                      (bootstrap complete: first local step)
//	joining → dead                         (donor lost / bootstrap fail-stop)
//	compute → draining                     (drain lands at the signal point)
//	ready   → draining                     (drain answered instead of a group)
//	draining→ done                         (hand-off acknowledged; terminal exit)
//	draining→ dead                         (fail-stop mid-hand-off)
//	done    → joining                      (a decommissioned slot re-occupied
//	                                        by a fresh joiner)
var legalSteps = [...][]StepState{
	StateIdle:     {StateCompute, StateJoining},
	StateCompute:  {StateReady, StateReduce, StateDead, StateDraining},
	StateReady:    {StateReduce, StateCompute, StateDone, StateDead, StateDraining},
	StateReduce:   {StateApply, StateReady, StateDead},
	StateApply:    {StateCompute, StateDone, StateDead, StateDraining},
	StateDone:     {StateJoining},
	StateDead:     nil,
	StateJoining:  {StateCompute, StateDead},
	StateDraining: {StateDone, StateDead},
}

// Machine tracks the step state of a set of workers and enforces the legal
// transitions. It is an invariant checker, not a scheduler: drivers tell it
// where each worker is, and an illegal move panics with both states named —
// the same contract as tensor's length checks, because a bad transition is
// always a programming error in a driver, never a data condition.
type Machine struct {
	states []StepState
}

// NewMachine returns a machine tracking n workers, all StateIdle.
func NewMachine(n int) *Machine { return &Machine{states: make([]StepState, n)} }

// State returns worker w's current step state.
func (m *Machine) State(w int) StepState { return m.states[w] }

// To moves worker w to state s, panicking on an illegal transition.
func (m *Machine) To(w int, s StepState) {
	from := m.states[w]
	for _, ok := range legalSteps[from] {
		if s == ok {
			m.states[w] = s
			return
		}
	}
	panic(fmt.Sprintf("engine: illegal step transition for worker %d: %v -> %v", w, from, s))
}

// Kill force-moves worker w to StateDead from any state (a fail-stop is an
// external event, not a step transition).
func (m *Machine) Kill(w int) { m.states[w] = StateDead }
