package engine

import "testing"

// TestMachineCanonicalPath walks one worker through the full P-Reduce step
// cycle — the exact sequence runPReduceSim and RunPReduceWorker drive — and
// through the solo-release and barrier-strategy shortcuts.
func TestMachineCanonicalPath(t *testing.T) {
	m := NewMachine(1)
	if got := m.State(0); got != StateIdle {
		t.Fatalf("fresh worker in %v, want idle", got)
	}
	for _, s := range []StepState{
		StateCompute, StateReady, StateReduce, StateApply, // full group cycle
		StateCompute, StateReady, StateCompute, // solo release
		StateReduce, StateApply, StateDone, // barrier shortcut, then finish
	} {
		m.To(0, s)
		if got := m.State(0); got != s {
			t.Fatalf("state %v after To(%v)", got, s)
		}
	}
}

// TestMachineAbortRollback covers the §4 recovery edge: a collective aborted
// under a worker sends it back to ready for the same iteration.
func TestMachineAbortRollback(t *testing.T) {
	m := NewMachine(1)
	m.To(0, StateCompute)
	m.To(0, StateReady)
	m.To(0, StateReduce)
	m.To(0, StateReady) // abort: roll back and re-signal
	m.To(0, StateReduce)
	m.To(0, StateApply)
}

// TestMachineKill: Kill moves to dead from anywhere (a fail-stop is an
// external event).
func TestMachineKill(t *testing.T) {
	for _, path := range [][]StepState{
		{StateCompute},
		{StateCompute, StateReady},
		{StateCompute, StateReady, StateReduce},
		{StateCompute, StateReady, StateReduce, StateApply},
	} {
		m := NewMachine(1)
		for _, s := range path {
			m.To(0, s)
		}
		m.Kill(0)
		if got := m.State(0); got != StateDead {
			t.Fatalf("killed worker in %v after %v", got, path)
		}
	}
}

// TestMachineIllegalTransitionPanics: the machine is an invariant checker —
// a driver drifting from the documented step order must fail loudly.
func TestMachineIllegalTransitionPanics(t *testing.T) {
	cases := []struct {
		name string
		path []StepState
		bad  StepState
	}{
		{"idle to reduce", nil, StateReduce},
		{"idle to done", nil, StateDone},
		{"compute to apply", []StepState{StateCompute}, StateApply},
		{"compute to compute", []StepState{StateCompute}, StateCompute},
		{"reduce to done", []StepState{StateCompute, StateReady, StateReduce}, StateDone},
		{"done is terminal", []StepState{StateCompute, StateReady, StateDone}, StateCompute},
		{"dead to reduce", []StepState{StateCompute, StateDead}, StateReduce},
		{"dead is terminal", []StepState{StateCompute, StateDead}, StateCompute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(1)
			for _, s := range tc.path {
				m.To(0, s)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("transition %v accepted after %v", tc.bad, tc.path)
				}
			}()
			m.To(0, tc.bad)
		})
	}
}

// TestMachineTracksWorkersIndependently guards the multi-worker bookkeeping
// runPReduceSim relies on.
func TestMachineTracksWorkersIndependently(t *testing.T) {
	m := NewMachine(3)
	m.To(0, StateCompute)
	m.To(1, StateCompute)
	m.To(1, StateReady)
	m.Kill(2)
	want := []StepState{StateCompute, StateReady, StateDead}
	for w, s := range want {
		if got := m.State(w); got != s {
			t.Fatalf("worker %d in %v, want %v", w, got, s)
		}
	}
}

func TestStepStateString(t *testing.T) {
	names := map[StepState]string{
		StateIdle: "idle", StateCompute: "compute", StateReady: "ready",
		StateReduce: "reduce", StateApply: "apply", StateDone: "done",
		StateDead: "dead",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", s, got, want)
		}
	}
	if got := StepState(99).String(); got != "state(99)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}
