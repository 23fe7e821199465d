package live

import (
	"testing"
	"time"

	"partialreduce/internal/controller"
	"partialreduce/internal/transport"
)

// The headline fault-tolerance property (§4): a worker crashing mid-training
// — with its ready signal in flight, so the controller may form a group
// containing the corpse — must not stop the run. The survivors detect the
// death inside the collective or the host's receive loop reports it, they
// re-signal with their untouched models, and finish training to full quality.
// Whether a group did form with the corpse depends on whether its last signal
// outran its death; the exact schedule, and the abort it must count, is
// TestCoreLostWhileGroupedCountsTheAbort's.
func crashSurvivors(t *testing.T, run entry, seed int64, crashed int) {
	t.Helper()
	cfg := liveConfig(t, seed)
	cfg.Crash = map[int]int{crashed: 10}
	rep := run(t, cfg, memWorld(cfg.N))
	if rep.FinalAccuracy < 0.9 {
		t.Fatalf("accuracy %.3f after crash, want >= 0.9", rep.FinalAccuracy)
	}
	if rep.Failures != 1 || rep.Joins != 0 || rep.Drains != 0 || rep.Decommissions != 0 {
		t.Fatalf("failures=%d joins=%d drains=%d decommissions=%d, want 1/0/0/0",
			rep.Failures, rep.Joins, rep.Drains, rep.Decommissions)
	}
	if rep.Aborts > 1 {
		t.Fatalf("aborts=%d: one death tears down at most the one group holding the corpse", rep.Aborts)
	}
	if len(rep.Alive) != cfg.N {
		t.Fatalf("alive=%v, want %d entries", rep.Alive, cfg.N)
	}
	for id := 0; id < cfg.N; id++ {
		if id == crashed {
			if rep.Alive[id] || rep.Completed[id] || rep.WorkerIters[id] >= cfg.Iters {
				t.Fatalf("crashed worker %d: alive=%v completed=%v iters=%d/%d",
					id, rep.Alive[id], rep.Completed[id], rep.WorkerIters[id], cfg.Iters)
			}
			continue
		}
		if !rep.Alive[id] || !rep.Completed[id] || rep.WorkerIters[id] < cfg.Iters {
			t.Fatalf("survivor %d: alive=%v completed=%v iters=%d/%d",
				id, rep.Alive[id], rep.Completed[id], rep.WorkerIters[id], cfg.Iters)
		}
	}
}

func TestLiveCrashSurvivors(t *testing.T) { crashSurvivors(t, runBounded, 50, 3) }

// With one RunWorker per rank the control frames share the data world, the
// controller sits on rank 0 and the final average is a gather over the
// survivor roster.
func TestRunWorkerCrash(t *testing.T) { crashSurvivors(t, runWorkersFolded, 57, 2) }

// TestRunRankZeroCrash: Run's controller lives on a rank of its own, so rank
// 0 may fail-stop like any other — and nothing but the service's receive loop
// (no timeout of any kind is configured) is there to notice.
func TestRunRankZeroCrash(t *testing.T) { crashSurvivors(t, runBounded, 59, 0) }

// Two concurrent crashes with P=2 over N=4: the two survivors keep grouping
// with each other and finish.
func TestLiveTwoCrashes(t *testing.T) {
	cfg := liveConfig(t, 51)
	cfg.Crash = map[int]int{1: 8, 3: 14}

	rep, err := Run(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 2 {
		t.Fatalf("failures = %d, want 2", rep.Failures)
	}
	if !rep.Completed[0] || !rep.Completed[2] {
		t.Fatalf("survivors incomplete: %v", rep.Completed)
	}
	if rep.FinalAccuracy < 0.85 {
		t.Fatalf("accuracy %.3f after two crashes", rep.FinalAccuracy)
	}
}

// A crash with P > 2: the remaining group shrinks to the effective size
// min(P, survivors) and the run still completes.
func TestLiveCrashShrinksGroupSize(t *testing.T) {
	cfg := liveConfig(t, 52)
	cfg.N, cfg.P = 4, 3
	cfg.Crash = map[int]int{0: 12}

	rep, err := Run(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 1 {
		t.Fatalf("failures = %d, want 1", rep.Failures)
	}
	for id := 1; id < cfg.N; id++ {
		if !rep.Completed[id] {
			t.Fatalf("survivor %d did not complete", id)
		}
	}
	if rep.FinalAccuracy < 0.85 {
		t.Fatalf("accuracy %.3f", rep.FinalAccuracy)
	}
}

// Crash under dynamic weighting: the staleness-aware weight generator must
// keep working as the survivor set shrinks.
func TestLiveCrashDynamicWeighting(t *testing.T) {
	cfg := liveConfig(t, 54)
	cfg.Weighting = controller.Dynamic
	cfg.Crash = map[int]int{1: 15}
	cfg.Iters = 80

	rep, err := Run(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 1 {
		t.Fatalf("failures = %d", rep.Failures)
	}
	if rep.FinalAccuracy < 0.85 {
		t.Fatalf("dynamic accuracy %.3f after crash", rep.FinalAccuracy)
	}
}

// Config validation of the fault-injection knobs.
func TestFaultConfigValidate(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Crash = map[int]int{9: 5} },             // out of range
		func(c *Config) { c.Crash = map[int]int{1: 0} },             // iter < 1
		func(c *Config) { c.Crash = map[int]int{1: c.Iters + 1} },   // iter > Iters
		func(c *Config) { c.Crash = map[int]int{0: 1, 1: 1, 2: 1} }, // too many
	}
	for i, mutate := range mutations {
		cfg := liveConfig(t, 55)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("fault mutation %d accepted", i)
		}
	}
	good := liveConfig(t, 55)
	good.Crash = map[int]int{1: 5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid fault config rejected: %v", err)
	}
}

// The host rank must refuse to crash: in a multi-process world the
// controller shares rank 0's process.
func TestRunWorkerFaultValidation(t *testing.T) {
	cfg := liveConfig(t, 58)
	cfg.Crash = map[int]int{0: 5}
	world := memWorld(cfg.N)
	if _, err := RunWorker(cfg, world[0], true); err == nil {
		t.Fatal("controller-host crash accepted")
	}
}

// The §4 asymmetry, executable: the same crash schedule that P-Reduce
// recovers from (TestLiveCrashSurvivors) kills the live All-Reduce baseline,
// because every All-Reduce iteration needs all N workers at the barrier. The
// run must fail with a peer-down error — and fail promptly, not hang.
func TestLiveAllReduceCrashFails(t *testing.T) {
	cfg := liveConfig(t, 50) // same seed and schedule as the P-Reduce test
	cfg.Crash = map[int]int{3: 10}

	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		rep, err = RunAllReduce(cfg, memWorld(cfg.N))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("all-reduce hung on a crashed worker instead of failing")
	}
	if err == nil {
		t.Fatalf("all-reduce survived a worker crash (report: %+v); it must not", rep)
	}
	if !transport.IsFailure(err) {
		t.Fatalf("all-reduce failed with %v, want a peer-down failure", err)
	}
}

// A crash over the fault-injecting transport wrapper: the FaultyTransport's
// CrashAfterSends schedule kills a rank from below (mid-collective, not at
// the polite post-signal point), and the runtime still recovers: peers report
// the corpse from inside the collective, and the rank itself — its own
// endpoint failing under it — leaves through the control plane.
func TestLiveCrashViaFaultyTransport(t *testing.T) {
	cfg := liveConfig(t, 56)

	inner := memWorld(cfg.N)
	eps, err := transport.NewFaultyWorld(inner, transport.FaultPlan{
		Seed:            56,
		CrashAfterSends: map[int]int{3: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	world := make([]transport.Transport, cfg.N)
	for i, e := range eps {
		world[i] = e
	}

	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		rep, runErr = Run(cfg, world)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run hung after transport-level crash")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rep.Failures < 1 {
		t.Fatalf("failures = %d, want >= 1", rep.Failures)
	}
	if rep.Completed[3] {
		t.Fatal("crashed rank marked completed")
	}
	if rep.FinalAccuracy < 0.85 {
		t.Fatalf("accuracy %.3f", rep.FinalAccuracy)
	}
}
