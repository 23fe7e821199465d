package live

import (
	"testing"
	"time"

	"partialreduce/internal/controller"
	"partialreduce/internal/transport"
)

// The headline fault-tolerance property (§4): a worker crashing mid-training
// must not stop the run. The crash is done to the rank from below: the fault
// plan kills its endpoint on its 41st send — mid-collective, or (where control
// frames share the world) a ready signal that never arrives. The corpse's own
// send fails naming itself, so it leaves as declared dead; peers report it
// from inside the collective and the host's receive loop reports it Lost. The
// survivors re-signal with their untouched models and finish training to full
// quality. Whether a group formed with the corpse depends on where the crash
// lands; the exact schedule, and the abort it must count, is
// TestCoreLostWhileGroupedCountsTheAbort's.
func crashSurvivors(t *testing.T, run entry, seed int64, crashed int) {
	t.Helper()
	cfg := liveConfig(t, seed)
	world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{Seed: seed, CrashAfterSends: map[int]int{crashed: 40}})
	rep := run(t, cfg, world, nil)
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

func TestLiveCrashSurvivors(t *testing.T)          { crashSurvivors(t, runBounded, 50, 3) }
func TestLiveCrashViaFaultyTransport(t *testing.T) { crashSurvivors(t, runBounded, 56, 3) }

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
	world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{Seed: 51, CrashAfterSends: map[int]int{1: 16, 3: 28}})

	rep, err := Run(cfg, world)
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
	world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{Seed: 52, CrashAfterSends: map[int]int{0: 48}})

	rep, err := Run(cfg, world)
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
	cfg.Iters = 80
	world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{Seed: 54, CrashAfterSends: map[int]int{1: 30}})

	rep, err := Run(cfg, world)
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

// The §4 asymmetry, executable: a crash like the one P-Reduce recovers from
// (TestLiveCrashSurvivors: rank 3, seed 50) kills the live All-Reduce
// baseline, because every All-Reduce iteration needs all N workers at the
// barrier. The run must fail with a peer-down error — and fail promptly, not
// hang.
func TestLiveAllReduceCrashFails(t *testing.T) {
	cfg := liveConfig(t, 50)
	world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{Seed: 50, CrashAfterSends: map[int]int{3: 60}})

	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		rep, err = RunAllReduce(cfg, world)
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
