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
//   - the two substrates: SimEnv (wraps cluster.Cluster — virtual clock,
//     analytic α–β costs, traffic charging folded inside the env so no
//     strategy ever touches ChargeRing/ChargeExchange directly) and LiveEnv
//     (wraps a transport endpoint — wall clock, real bytes through the
//     collective package). They share no interface: a driver is written
//     against the one it schedules on (event-driven or blocking);
//   - the drivers: the PReduce strategy (PReduceConfig → NewController → the
//     one sim driver, blocking or pipelined) and RunAllReduceSim on the event
//     engine, RunPReduceWorker/RunAllReduceWorker as the live per-rank loops,
//     and ServiceCore, which serves the controller to both substrates.
//
// Strategies and runtimes configure a SimEnv or a LiveEnv and invoke a
// driver; they never re-implement the step. Adding a strategy is a
// single-file change against this package.
package engine

import "fmt"

// StepState is one phase of the canonical training step. Every worker,
// simulated or live, advances through these states; Machine enforces that
// only the documented transitions occur, so a refactor that drifts one
// substrate's step order away from the other fails loudly instead of
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
	// StateDead: fail-stopped. A checkpoint rejoin transitions back to
	// StateCompute.
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
//	dead    → compute                      (checkpoint rejoin)
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
	StateDead:     {StateCompute},
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

// To moves worker w to state s, panicking on an illegal transition. A nil
// machine checks nothing: the pipelined driver, whose worker computes and
// reduces at once, runs without one.
func (m *Machine) To(w int, s StepState) {
	if m == nil {
		return
	}
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
// external event, not a step transition). A nil machine ignores it.
func (m *Machine) Kill(w int) {
	if m != nil {
		m.states[w] = StateDead
	}
}
