package live

import (
	"strings"
	"sync"
	"testing"
	"time"

	"partialreduce/internal/collective"
	"partialreduce/internal/transport"
)

// entry is one way into the runtime. A scenario that must hold through both
// is written once against an entry and run through runBounded (Run drives
// every rank) and runWorkersFolded (one RunWorker per rank, rank 0 hosting).
// failover feeds the controller service's failover input (nil: none; see
// failoverAt).
type entry func(t *testing.T, cfg Config, world []transport.Transport, failover <-chan bool) *Report

// runBounded runs Run with a wall-clock bound so a broken recovery path
// fails the test instead of hanging it.
func runBounded(t *testing.T, cfg Config, world []transport.Transport, failover <-chan bool) *Report {
	t.Helper()
	var rep *Report
	var err error
	done := make(chan struct{})
	go func() {
		rep, err = run(cfg, world, failover)
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

// ctrlFailoverConfig is the standard test cluster with the bounded waits a
// controller failover needs: a worker whose reply died with the old
// incarnation re-sends after CtrlTimeout, and a group formed around a signal
// whose reply died dissolves after CollectiveTimeout. Workers the sync-graph
// filter holds back for that group's members wait that long, so it stays
// well under the ctrlResendLimit+1 CtrlTimeouts after which they withdraw.
func ctrlFailoverConfig(t *testing.T, seed int64) Config {
	t.Helper()
	cfg := liveConfig(t, seed)
	cfg.CtrlTimeout = 100 * time.Millisecond
	cfg.CollectiveTimeout = 300 * time.Millisecond
	return cfg
}

// failoverAt stages one controller failover (cold or warm) for the moment
// rank starts computing iteration iter or, fast-forwarded past it, the next
// one: cfg's ComputeDelay hook hands the request to the service and returns
// once the service has taken it, so the crash lands at a fixed point of the
// run's own progress, not of wall time. Arm it after setting ComputeDelay,
// which it wraps, and pass the channel to the entry.
func failoverAt(cfg *Config, rank, iter int, cold bool) <-chan bool {
	failover := make(chan bool)
	delay, fired := cfg.ComputeDelay, false // fired: only rank's goroutine reads it
	cfg.ComputeDelay = func(w, it int) time.Duration {
		if w == rank && it >= iter && !fired {
			fired = true
			failover <- cold
		}
		if delay == nil {
			return 0
		}
		return delay(w, it)
	}
	return failover
}

// ctrlFailover is the failover property: the controller object is destroyed
// mid-run (in-flight replies lost with it) and replaced — warm from its
// snapshot, or cold from nothing but the config, repopulated by the ready
// signals workers re-send. Workers notice only as a bounded wait plus a
// retransmission; nobody is condemned and training completes inside the
// accuracy band of the same run without the crash.
func ctrlFailover(t *testing.T, run entry, seed int64, cold bool) {
	t.Helper()
	base := run(t, liveConfig(t, seed), memWorld(4), nil)
	cfg := ctrlFailoverConfig(t, seed)
	failover := failoverAt(&cfg, 0, 2, cold)
	rep := run(t, cfg, memWorld(cfg.N), failover)
	if rep.CtrlRestarts != 1 {
		t.Fatalf("controller restarts = %d, want 1", rep.CtrlRestarts)
	}
	if rep.Failures != 0 {
		t.Fatalf("failover condemned %d workers; a controller crash kills nobody", rep.Failures)
	}
	for id := 0; id < cfg.N; id++ {
		if !rep.Completed[id] || rep.WorkerIters[id] < cfg.Iters || !rep.Alive[id] {
			t.Fatalf("worker %d across the failover: completed=%v iters=%d/%d alive=%v",
				id, rep.Completed[id], rep.WorkerIters[id], cfg.Iters, rep.Alive[id])
		}
	}
	if rep.FinalAccuracy < base.FinalAccuracy-0.05 {
		t.Fatalf("failover accuracy %.3f fell out of the no-fault band (%.3f)",
			rep.FinalAccuracy, base.FinalAccuracy)
	}
}

func TestLiveCtrlFailoverWarm(t *testing.T) { ctrlFailover(t, runBounded, 60, false) }
func TestLiveCtrlFailoverCold(t *testing.T) { ctrlFailover(t, runBounded, 61, true) }

func TestRunWorkerCtrlFailover(t *testing.T) {
	t.Run("warm", func(t *testing.T) { ctrlFailover(t, runWorkersFolded, 67, false) })
	t.Run("cold", func(t *testing.T) { ctrlFailover(t, runWorkersFolded, 67, true) })
}

// failoverWithWorkerCrash: a controller crash while worker 3 also fail-stops.
// The service-side death memory must survive the controller's reincarnation
// (and be re-taught to a cold one), the death is counted once, and the
// survivors still finish.
func failoverWithWorkerCrash(t *testing.T, run entry, seed int64) {
	t.Helper()
	for _, cold := range []bool{false, true} {
		cfg := ctrlFailoverConfig(t, seed)
		failover := failoverAt(&cfg, 0, 2, cold)
		world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{Seed: seed, CrashAfterSends: map[int]int{3: 20}})
		rep := run(t, cfg, world, failover)
		if rep.CtrlRestarts != 1 || rep.Failures != 1 {
			t.Fatalf("cold=%v: restarts=%d failures=%d, want 1/1", cold, rep.CtrlRestarts, rep.Failures)
		}
		if rep.Alive[3] || rep.Completed[3] {
			t.Fatalf("cold=%v: crashed rank alive=%v completed=%v", cold, rep.Alive[3], rep.Completed[3])
		}
		for id := 0; id < 3; id++ {
			if !rep.Completed[id] {
				t.Fatalf("cold=%v: survivor %d did not complete", cold, id)
			}
		}
		if rep.FinalAccuracy < 0.85 {
			t.Fatalf("cold=%v: accuracy %.3f after crash + failover", cold, rep.FinalAccuracy)
		}
	}
}

func TestLiveCtrlFailoverWithWorkerCrash(t *testing.T) { failoverWithWorkerCrash(t, runBounded, 62) }
func TestRunWorkerCtrlFailoverWithWorkerCrash(t *testing.T) {
	failoverWithWorkerCrash(t, runWorkersFolded, 68)
}

// The failover knobs are validated: a negative worker wait or collective
// bound, or an invalid retry policy, is refused.
func TestCtrlFailoverConfigValidate(t *testing.T) {
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
		Partitions: []transport.Partition{{
			Ranks: []int{2, 3},
			From:  30 * time.Millisecond,
			Until: 330 * time.Millisecond,
		}},
	})

	rep := runBounded(t, cfg, world, nil)
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
// time out and are retried or dissolved) and nobody is condemned for it.
func TestRunControlOutOfBand(t *testing.T) {
	cfg := liveConfig(t, 69)
	cfg.CollectiveTimeout = 50 * time.Millisecond
	cfg.ComputeDelay = func(worker, iter int) time.Duration { return 2 * time.Millisecond }
	world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{
		Seed:       69,
		Partitions: []transport.Partition{{Ranks: []int{3}, From: 0, Until: 150 * time.Millisecond}},
	})

	rep := runBounded(t, cfg, world, nil)
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
}

// Controller failover and a network partition in the same run — the
// acceptance scenario: warm restart mid-run while ranks {2,3} are cut off
// for a window, and the run still completes with no one condemned.
func TestLiveFailoverPlusPartition(t *testing.T) {
	for _, cold := range []bool{false, true} {
		cfg := ctrlFailoverConfig(t, 65)
		cfg.CollectiveTimeout = 100 * time.Millisecond
		cfg.Retry = collective.RetryPolicy{
			MaxAttempts: 3, BaseDelay: 20 * time.Millisecond,
			MaxDelay: 80 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
		}
		cfg.ComputeDelay = func(worker, iter int) time.Duration { return 2 * time.Millisecond }
		failover := failoverAt(&cfg, 0, 2, cold)
		world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{
			Seed: 65,
			Partitions: []transport.Partition{{
				Ranks: []int{2, 3},
				From:  30 * time.Millisecond,
				Until: 280 * time.Millisecond,
			}},
		})
		rep := runBounded(t, cfg, world, failover)
		if rep.CtrlRestarts != 1 {
			t.Fatalf("cold=%v: controller restarts = %d, want 1", cold, rep.CtrlRestarts)
		}
		if rep.Failures != 0 {
			t.Fatalf("cold=%v: %d workers condemned", cold, rep.Failures)
		}
		for id := 0; id < cfg.N; id++ {
			if !rep.Completed[id] {
				t.Fatalf("cold=%v: worker %d did not complete", cold, id)
			}
		}
		if rep.FinalAccuracy < 0.85 {
			t.Fatalf("cold=%v: accuracy %.3f", cold, rep.FinalAccuracy)
		}
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
func runWorkersBounded(t *testing.T, cfg Config, world []transport.Transport, failover <-chan bool) []*Report {
	t.Helper()
	var reports []*Report
	done := make(chan struct{})
	go func() {
		defer close(done)
		reports = runWorkerWorld(t, cfg, world, failover)
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
func runWorkersFolded(t *testing.T, cfg Config, world []transport.Transport, failover <-chan bool) *Report {
	t.Helper()
	reports := runWorkersBounded(t, cfg, world, failover)
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
