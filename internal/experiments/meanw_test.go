package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
	"partialreduce/internal/model"
	"partialreduce/internal/tensor"
	"partialreduce/internal/trace"
)

// tracedRounds drives a traced controller through rounds of one ready
// signal per worker, the w-th signal of a round coming from worker
// (w + round·rotate) mod N, and returns its tracer.
func tracedRounds(t *testing.T, cfg controller.Config, rounds, rotate int) *trace.Tracer {
	t.Helper()
	tr := trace.New(trace.FuncClock(func() float64 { return 0 }), 0)
	c, err := engine.NewController(cfg, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		for w := 0; w < cfg.N; w++ {
			if _, err := c.Ready(controller.Signal{Worker: (w + round*rotate) % cfg.N, Iter: round}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// checkDoublyStochastic fails unless m is symmetric, non-negative, and every
// row (hence every column) sums to 1 within 1e-12.
func checkDoublyStochastic(t *testing.T, m *tensor.Matrix) {
	t.Helper()
	if !m.IsSymmetric(1e-12) {
		t.Fatalf("E[W] not symmetric:\n%v", m)
	}
	for i := 0; i < m.Rows; i++ {
		var row float64
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) < 0 {
				t.Fatalf("negative entry at (%d,%d)", i, j)
			}
			row += m.At(i, j)
		}
		if math.Abs(row-1) > 1e-12 {
			t.Fatalf("row %d sums to %.17g:\n%v", i, row, m)
		}
	}
}

// The fold over a rotating arrival order (varied pairs) is doubly
// stochastic, and a log with no group in it is refused.
func TestGroupLogMeanWProperties(t *testing.T) {
	if _, err := groupLogMeanW(4, tracedRounds(t, controller.Config{N: 4, P: 2}, 0, 1)); err == nil {
		t.Fatal("E[W] of an empty group log accepted")
	}
	m, err := groupLogMeanW(4, tracedRounds(t, controller.Config{N: 4, P: 2}, 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	checkDoublyStochastic(t, m)
}

// At P=N every group is global, so E[W] is the rank-one 1/N matrix.
func TestGroupLogMeanWAllReduceLimit(t *testing.T) {
	m, err := groupLogMeanW(4, tracedRounds(t, controller.Config{N: 4, P: 4}, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(m.At(i, j)-0.25) > 1e-12 {
				t.Fatalf("E[W](%d,%d)=%v want 0.25", i, j, m.At(i, j))
			}
		}
	}
}

// Under adaptive-p groups of several sizes form; weighing each group 1/|S|
// keeps E[W] doubly stochastic (a 1/P weight on every membership did not:
// its rows summed to 0.875–0.9175 on this cell).
func TestGroupLogMeanWAdaptiveDoublyStochastic(t *testing.T) {
	_, c := runAdaptiveTraced(t, 3)
	sizes := map[int64]bool{}
	for _, ev := range c.Tracer.Events() {
		if ev.Kind == trace.KGroupFormed {
			sizes[ev.B] = true
		}
	}
	if len(sizes) < 2 {
		t.Fatalf("adaptive-p formed groups of one size only: %v", sizes)
	}
	m, err := groupLogMeanW(8, c.Tracer)
	if err != nil {
		t.Fatal(err)
	}
	checkDoublyStochastic(t, m)
}

// A trace ring too small for a fig4-style run loses groups: the fold refuses
// it and names how many events were dropped.
func TestGroupLogMeanWRefusesDroppedEvents(t *testing.T) {
	run, err := runCell(job{
		cell:     Cell{Workload: quick.workload(CIFAR10Workload(model.ResNet34)), N: 3, Env: EnvHL, HL: 1, Seed: 1},
		strategy: "fig4",
		preduce:  &engine.PReduceConfig{P: 2, DisableGroupFilter: true},
		tweak: func(cfg *cluster.Config) {
			cfg.Threshold = 0.999
			cfg.MaxUpdates = 400
			cfg.TraceCap = 1 << 10
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dropped := run.Cluster.Tracer.Dropped()
	if dropped == 0 {
		t.Fatal("a 1Ki ring held the whole run; the test needs a lossy log")
	}
	_, err = groupLogMeanW(3, run.Cluster.Tracer)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("dropped %d events", dropped)) {
		t.Fatalf("lossy log: err = %v, want one naming %d dropped events", err, dropped)
	}
}
