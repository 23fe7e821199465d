package live

import (
	"strings"
	"sync"
	"testing"
	"time"

	"partialreduce/internal/collective"
	"partialreduce/internal/controller"
	"partialreduce/internal/hetero"
	"partialreduce/internal/transport"
)

// entry is one way into the runtime. A scenario that must hold through both
// is written once against an entry and run through runBounded (Run drives
// every rank) and runWorkersFolded (one RunWorker per rank, rank 0 hosting).
type entry func(t *testing.T, cfg Config, world []transport.Transport) *Report

// runBounded runs Run with a wall-clock bound so a broken recovery path
// fails the test instead of hanging it.
func runBounded(t *testing.T, cfg Config, world []transport.Transport) *Report {
	t.Helper()
	var rep *Report
	var err error
	done := make(chan struct{})
	go func() {
		rep, err = Run(cfg, world)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("run hung")
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// faultyWorld wraps a Mem world with the given fault plan.
func faultyWorld(t *testing.T, n int, plan transport.FaultPlan) ([]transport.Transport, []*transport.Faulty) {
	t.Helper()
	eps, err := transport.NewFaultyWorld(memWorld(n), plan)
	if err != nil {
		t.Fatal(err)
	}
	world := make([]transport.Transport, n)
	for i, e := range eps {
		world[i] = e
	}
	return world, eps
}

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
func crashSurvivors(t *testing.T, run entry, cfg Config, crashed int) {
	t.Helper()
	world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{Seed: cfg.Seed, CrashAfterSends: map[int]int{crashed: 40}})
	rep := run(t, cfg, world)
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

func TestLiveCrashSurvivors(t *testing.T) { crashSurvivors(t, runBounded, liveConfig(t, 50), 3) }
func TestLiveCrashViaFaultyTransport(t *testing.T) {
	crashSurvivors(t, runBounded, liveConfig(t, 56), 3)
}

// TestLiveCrashSurvivorsOnRing: the same crash at 1-element segments, so the
// collective the corpse dies in is a ring rather than the one-frame exchange
// the 276-parameter model takes by default.
func TestLiveCrashSurvivorsOnRing(t *testing.T) {
	cfg := liveConfig(t, 50)
	cfg.SegmentElems = 1
	crashSurvivors(t, runBounded, cfg, 3)
}

// With one RunWorker per rank the control frames share the data world, the
// controller sits on rank 0 and the final average runs there, over the
// ranks that completed.
func TestRunWorkerCrash(t *testing.T) { crashSurvivors(t, runWorkersFolded, liveConfig(t, 57), 2) }

// TestRunRankZeroCrash: Run's controller lives on a rank of its own, so rank
// 0 may fail-stop like any other — and nothing but the service's receive loop
// (no timeout of any kind is configured) is there to notice.
func TestRunRankZeroCrash(t *testing.T) { crashSurvivors(t, runBounded, liveConfig(t, 59), 0) }

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

// The bounded-wait knobs are validated: a negative worker wait or collective
// bound, or an invalid retry policy, is refused.
func TestTimeoutConfigValidate(t *testing.T) {
	cfg := liveConfig(t, 63)
	cfg.CtrlTimeout = -time.Second
	if cfg.Validate() == nil {
		t.Fatal("negative CtrlTimeout accepted")
	}
	cfg = liveConfig(t, 63)
	cfg.CollectiveTimeout = -time.Second
	if cfg.Validate() == nil {
		t.Fatal("negative CollectiveTimeout accepted")
	}
	cfg = liveConfig(t, 63)
	cfg.Retry.Jitter = 2
	if cfg.Validate() == nil {
		t.Fatal("invalid retry policy accepted")
	}
}

// A timed two-rank partition mid-run: groups that straddle the cut time
// out, retry, and finally abort with nobody condemned; same-side groups keep
// training; after the heal the cluster reconverges and every worker
// completes.
func TestLivePartitionRecovery(t *testing.T) {
	cfg := liveConfig(t, 64)
	cfg.CollectiveTimeout = 100 * time.Millisecond
	cfg.Retry = collective.RetryPolicy{
		MaxAttempts: 3, BaseDelay: 20 * time.Millisecond,
		MaxDelay: 80 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
	}
	// Slow the batches down so the run reliably spans the partition window
	// (an unthrottled in-memory run finishes in milliseconds).
	cfg.ComputeDelay = func(worker, iter int) time.Duration { return 2 * time.Millisecond }
	world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{
		Seed: 64,
		Partitions: hetero.PartitionSchedule{{
			Ranks: []int{2, 3},
			From:  0.030,
			Until: 0.330,
		}},
	})

	rep := runBounded(t, cfg, world)
	for id := 0; id < cfg.N; id++ {
		if !rep.Completed[id] {
			t.Fatalf("worker %d did not complete through the partition", id)
		}
		if rep.WorkerIters[id] < cfg.Iters {
			t.Fatalf("worker %d stopped at %d/%d", id, rep.WorkerIters[id], cfg.Iters)
		}
	}
	if rep.Failures != 0 {
		t.Fatalf("partition condemned %d workers; links were cut, nobody died", rep.Failures)
	}
	if rep.Comms.Timeouts == 0 {
		t.Fatal("no collective timeouts recorded: the partition never bit (shift the window?)")
	}
	if rep.FinalAccuracy < 0.85 {
		t.Fatalf("accuracy %.3f after partition recovery", rep.FinalAccuracy)
	}
}

// TestRunControlOutOfBand: Run's control frames travel on a world of their
// own, so a fault plan on the caller's world cannot touch them. Rank 3 is cut
// off from everyone — rank 0 included — from before its first ready signal,
// and no control wait is bounded (CtrlTimeout = 0): were a single signal or
// reply to cross the partitioned world, its rank would park for good and the
// run would hang. The data plane does feel the cut (collectives with rank 3
// time out and are dissolved) and nobody is condemned for it — on the
// one-frame exchange the model takes by default and on the ring 1-element
// segments force.
func TestRunControlOutOfBand(t *testing.T) {
	for _, geo := range []struct {
		name string
		seg  int
	}{{"exchange", 0}, {"ring", 1}} {
		t.Run(geo.name, func(t *testing.T) {
			cfg := liveConfig(t, 69)
			cfg.SegmentElems = geo.seg
			cfg.CollectiveTimeout = 50 * time.Millisecond
			cfg.ComputeDelay = func(worker, iter int) time.Duration { return 2 * time.Millisecond }
			world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{
				Seed:       69,
				Partitions: hetero.PartitionSchedule{{Ranks: []int{3}, From: 0, Until: 0.150}},
			})

			rep := runBounded(t, cfg, world)
			for id := 0; id < cfg.N; id++ {
				if !rep.Completed[id] || rep.WorkerIters[id] < cfg.Iters {
					t.Fatalf("worker %d: completed=%v iters=%d/%d", id, rep.Completed[id], rep.WorkerIters[id], cfg.Iters)
				}
			}
			if rep.Failures != 0 {
				t.Fatalf("partition condemned %d workers; links were cut, nobody died", rep.Failures)
			}
			if rep.Comms.Timeouts == 0 {
				t.Fatal("no collective timeouts recorded: the partition never bit the data plane")
			}
		})
	}
}

// The multi-process no-deadlock property: a worker whose link to the
// controller rank is severed must not hang — it re-sends its signal a
// bounded number of times, then withdraws with an error, and the rest of
// the cluster finishes without it.
func TestRunWorkerCtrlLinkSevered(t *testing.T) {
	n := 3
	baseCfg := liveConfig(t, 66)
	baseCfg.N, baseCfg.P = n, 2

	world, eps := faultyWorld(t, n, transport.FaultPlan{Seed: 66})
	// Cut the control-plane link between rank 2 and the controller (rank 0)
	// in both directions before anyone starts.
	eps[0].SeverLink(2, 0)
	eps[0].SeverLink(0, 2)

	reports := make([]*Report, n)
	errs := make([]error, n)
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			r := r
			cfg := baseCfg
			// Rank 2 gives up quickly; the healthy ranks use a laxer bound so
			// they never come close to their own withdrawal limit.
			if r == 2 {
				cfg.CtrlTimeout = 50 * time.Millisecond
			} else {
				cfg.CtrlTimeout = 500 * time.Millisecond
			}
			cfg.CollectiveTimeout = 2 * time.Second
			wg.Add(1)
			go func() {
				defer wg.Done()
				reports[r], errs[r] = RunWorker(cfg, world[r], r == 0)
			}()
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("severed controller link deadlocked the cluster")
	}

	if errs[2] == nil {
		t.Fatal("rank 2 reported success with its controller link severed")
	}
	if !strings.Contains(errs[2].Error(), "controller unreachable") {
		t.Fatalf("rank 2 error %v, want controller-unreachable withdrawal", errs[2])
	}
	for _, r := range []int{0, 1} {
		if errs[r] != nil {
			t.Fatalf("healthy rank %d: %v", r, errs[r])
		}
		if !reports[r].Completed[0] {
			t.Fatalf("healthy rank %d did not complete", r)
		}
	}
}

// runWorkersBounded runs one RunWorker per rank (rank 0 hosting the
// controller) with a wall-clock bound, failing on an error from any rank the
// fault plan did not kill (runWorkerWorld).
func runWorkersBounded(t *testing.T, cfg Config, world []transport.Transport) []*Report {
	t.Helper()
	var reports []*Report
	done := make(chan struct{})
	go func() {
		defer close(done)
		reports = runWorkerWorld(t, cfg, world)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("multi-process run hung")
	}
	return reports
}

// runWorkersFolded is runWorkersBounded with the one-rank reports put into
// the shape of Run's: accuracy and controller counters from the host (rank
// 0), per-rank progress and completion from each rank, data-plane stats
// summed. Groups is the ranks' total of group memberships, not Run's count of
// groups. A killed rank has no report: it folds as not completed, at
// iteration 0.
func runWorkersFolded(t *testing.T, cfg Config, world []transport.Transport) *Report {
	t.Helper()
	reports := runWorkersBounded(t, cfg, world)
	rep := *reports[0]
	rep.Groups, rep.WorkerIters, rep.Completed, rep.Comms = 0, nil, nil, collective.OpStats{}
	for _, r := range reports {
		if r == nil {
			r = &Report{WorkerIters: []int{0}, Completed: []bool{false}}
		}
		rep.Groups += r.Groups
		rep.WorkerIters = append(rep.WorkerIters, r.WorkerIters[0])
		rep.Completed = append(rep.Completed, r.Completed[0])
		rep.Comms.Merge(r.Comms)
	}
	return &rep
}
