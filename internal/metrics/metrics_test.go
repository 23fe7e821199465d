package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestTrackerConvergence(t *testing.T) {
	tr := NewTracker("X", "w", 0.9)
	tr.Update(1.0)
	tr.Update(2.0)
	if tr.Observe(2.0, 0.5) {
		t.Fatal("converged below threshold")
	}
	tr.Update(3.0)
	if !tr.Observe(3.0, 0.95) {
		t.Fatal("did not converge at threshold")
	}
	r := tr.Result()
	if !r.Converged || r.RunTime != 3.0 || r.Updates != 3 {
		t.Fatalf("result: %+v", r)
	}
	if got := r.PerUpdate(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("per-update %v", got)
	}
	if len(r.Curve) != 2 {
		t.Fatalf("curve length %d", len(r.Curve))
	}
}

func TestTrackerFrozenAfterConvergence(t *testing.T) {
	tr := NewTracker("X", "w", 0.5)
	tr.Update(1)
	tr.Observe(1, 0.6)
	tr.Update(10)
	if tr.Observe(10, 0.9) {
		t.Fatal("second convergence signal")
	}
	r := tr.Result()
	if r.Updates != 1 || r.RunTime != 1 {
		t.Fatalf("post-convergence updates leaked in: %+v", r)
	}
}

func TestTrackerCutoff(t *testing.T) {
	tr := NewTracker("X", "w", 0.99)
	tr.Update(1)
	tr.Observe(1, 0.3)
	tr.Cutoff(50)
	r := tr.Result()
	if r.Converged || r.RunTime != 50 {
		t.Fatalf("cutoff result: %+v", r)
	}
	if !strings.Contains(r.String(), "N/A") {
		t.Fatalf("unconverged result should render N/A: %s", r.String())
	}
	// Cutoff after convergence is a no-op.
	tr2 := NewTracker("X", "w", 0.5)
	tr2.Update(2)
	tr2.Observe(2, 0.9)
	tr2.Cutoff(99)
	if tr2.Result().RunTime != 2 {
		t.Fatal("cutoff overwrote converged run time")
	}
}

func TestPerUpdateZeroUpdates(t *testing.T) {
	r := &Result{RunTime: 10}
	if r.PerUpdate() != 0 {
		t.Fatal("per-update with zero updates should be 0")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{Strategy: "CON P=3", RunTime: 423, Updates: 3030, FinalAccuracy: 0.91, Converged: true}
	s := r.String()
	for _, want := range []string{"CON P=3", "423", "3030", "converged"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestWriteCurvesCSV(t *testing.T) {
	r := &Result{Strategy: "AR", Curve: []Point{{Time: 1.5, Updates: 10, Accuracy: 0.5}, {Time: 3, Updates: 20, Accuracy: 0.8}}}
	var buf strings.Builder
	if err := WriteCurvesCSV(&buf, r, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"strategy,time_s,updates,accuracy", "AR,1.500,10,0.50000", "AR,3.000,20,0.80000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Count(strings.TrimSpace(out), "\n") + 1
	if lines != 3 {
		t.Fatalf("lines: %d", lines)
	}
}

func TestWriteSummaryCSV(t *testing.T) {
	r := &Result{Strategy: "DYN P=3", Workload: "vgg19/cifar10", Converged: true,
		RunTime: 100, Updates: 400, FinalAccuracy: 0.91}
	var buf strings.Builder
	if err := WriteSummaryCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"per_update_s", "DYN P=3,vgg19/cifar10,true,100.000,400,0.25000,0.91000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
