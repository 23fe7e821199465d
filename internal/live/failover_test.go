package live

import (
	"strings"
	"sync"
	"testing"
	"time"

	"partialreduce/internal/collective"
	"partialreduce/internal/transport"
)

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

// ctrlFailoverConfig arms the controller-crash harness on the standard test
// cluster.
func ctrlFailoverConfig(t *testing.T, seed int64, cold bool) Config {
	t.Helper()
	cfg := liveConfig(t, seed)
	cfg.CtrlCrashAfter = 3
	cfg.CtrlCold = cold
	cfg.CtrlTimeout = 100 * time.Millisecond
	cfg.CollectiveTimeout = 2 * time.Second
	return cfg
}

// The tentpole property, warm path: the controller object is destroyed
// mid-run (in-flight replies lost with it) and replaced from its snapshot.
// Workers notice only as a bounded wait plus a retransmission; training
// completes at full quality.
func TestLiveCtrlFailoverWarm(t *testing.T) {
	base := runBounded(t, liveConfig(t, 60), memWorld(4))

	cfg := ctrlFailoverConfig(t, 60, false)
	rep := runBounded(t, cfg, memWorld(cfg.N))
	if rep.CtrlRestarts != 1 {
		t.Fatalf("controller restarts = %d, want 1", rep.CtrlRestarts)
	}
	for id := 0; id < cfg.N; id++ {
		if !rep.Completed[id] {
			t.Fatalf("worker %d did not complete across the failover", id)
		}
		if rep.WorkerIters[id] < cfg.Iters {
			t.Fatalf("worker %d stopped at %d/%d", id, rep.WorkerIters[id], cfg.Iters)
		}
	}
	if rep.Failures != 0 {
		t.Fatalf("failover condemned %d workers; a controller crash kills nobody", rep.Failures)
	}
	if rep.FinalAccuracy < base.FinalAccuracy-0.05 {
		t.Fatalf("failover accuracy %.3f fell out of the no-fault band (%.3f)",
			rep.FinalAccuracy, base.FinalAccuracy)
	}
}

// Cold path: the replacement controller starts from nothing but the config
// and is repopulated by the ready signals workers re-send.
func TestLiveCtrlFailoverCold(t *testing.T) {
	base := runBounded(t, liveConfig(t, 61), memWorld(4))

	cfg := ctrlFailoverConfig(t, 61, true)
	rep := runBounded(t, cfg, memWorld(cfg.N))
	if rep.CtrlRestarts != 1 {
		t.Fatalf("controller restarts = %d, want 1", rep.CtrlRestarts)
	}
	for id := 0; id < cfg.N; id++ {
		if !rep.Completed[id] {
			t.Fatalf("worker %d did not complete across the cold failover", id)
		}
	}
	if rep.Failures != 0 {
		t.Fatalf("cold failover condemned %d workers", rep.Failures)
	}
	if rep.FinalAccuracy < base.FinalAccuracy-0.05 {
		t.Fatalf("cold failover accuracy %.3f fell out of the no-fault band (%.3f)",
			rep.FinalAccuracy, base.FinalAccuracy)
	}
}

// A controller crash while a worker also fail-stops: the service-side death
// memory must survive the controller's (warm) reincarnation, and the
// survivors still finish.
func TestLiveCtrlFailoverWithWorkerCrash(t *testing.T) {
	cfg := ctrlFailoverConfig(t, 62, false)
	cfg.Crash = map[int]int{3: 10}
	cfg.FailTimeout = 2 * time.Second

	rep := runBounded(t, cfg, memWorld(cfg.N))
	if rep.CtrlRestarts != 1 {
		t.Fatalf("controller restarts = %d, want 1", rep.CtrlRestarts)
	}
	if rep.Failures != 1 {
		t.Fatalf("failures = %d, want exactly the injected crash", rep.Failures)
	}
	for id := 0; id < 3; id++ {
		if !rep.Completed[id] {
			t.Fatalf("survivor %d did not complete", id)
		}
	}
	if rep.FinalAccuracy < 0.85 {
		t.Fatalf("accuracy %.3f after crash + failover", rep.FinalAccuracy)
	}
}

// The failover knobs are validated: a crashing controller without bounded
// worker waits (or bounded collectives) would be unrecoverable.
func TestCtrlFailoverConfigValidate(t *testing.T) {
	cfg := liveConfig(t, 63)
	cfg.CtrlCrashAfter = 1
	if cfg.Validate() == nil {
		t.Fatal("CtrlCrashAfter without CtrlTimeout accepted")
	}
	cfg.CtrlTimeout = time.Millisecond
	if cfg.Validate() == nil {
		t.Fatal("CtrlCrashAfter without CollectiveTimeout accepted")
	}
	cfg.CollectiveTimeout = time.Millisecond
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.CtrlCrashAfter = -1
	if cfg.Validate() == nil {
		t.Fatal("negative CtrlCrashAfter accepted")
	}
	cfg = liveConfig(t, 63)
	cfg.CtrlTimeout = -time.Second
	if cfg.Validate() == nil {
		t.Fatal("negative CtrlTimeout accepted")
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

// Controller failover and a network partition in the same run — the
// acceptance scenario: warm restart mid-run while ranks {2,3} are cut off
// for a window, and the run still completes with no one condemned.
func TestLiveFailoverPlusPartition(t *testing.T) {
	for _, cold := range []bool{false, true} {
		cfg := ctrlFailoverConfig(t, 65, cold)
		cfg.CollectiveTimeout = 100 * time.Millisecond
		cfg.Retry = collective.RetryPolicy{
			MaxAttempts: 3, BaseDelay: 20 * time.Millisecond,
			MaxDelay: 80 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
		}
		cfg.ComputeDelay = func(worker, iter int) time.Duration { return 2 * time.Millisecond }
		world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{
			Seed: 65,
			Partitions: []transport.Partition{{
				Ranks: []int{2, 3},
				From:  30 * time.Millisecond,
				Until: 280 * time.Millisecond,
			}},
		})
		rep := runBounded(t, cfg, world)
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
// controller) with a wall-clock bound, failing on any rank's error.
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

// The failover harness on the wire: the hosted controller is destroyed
// mid-run and replaced (warm from its snapshot, cold from nothing); workers
// whose replies died with it re-send over the control tags and every rank
// completes with nobody condemned. The host's report carries the controller's
// counters.
func TestRunWorkerCtrlFailover(t *testing.T) {
	for _, cold := range []bool{false, true} {
		cold := cold
		t.Run(map[bool]string{false: "warm", true: "cold"}[cold], func(t *testing.T) {
			cfg := ctrlFailoverConfig(t, 67, cold)
			reports := runWorkersBounded(t, cfg, memWorld(cfg.N))
			host := reports[0]
			if host.CtrlRestarts != 1 {
				t.Fatalf("controller restarts = %d, want 1", host.CtrlRestarts)
			}
			if host.Failures != 0 {
				t.Fatalf("failover condemned %d workers; a controller crash kills nobody", host.Failures)
			}
			for r, rep := range reports {
				if !rep.Completed[0] || rep.WorkerIters[0] < cfg.Iters {
					t.Fatalf("rank %d: completed=%v iters=%d/%d", r, rep.Completed[0], rep.WorkerIters[0], cfg.Iters)
				}
			}
			for r, alive := range host.Alive {
				if !alive {
					t.Fatalf("rank %d not alive in the host's final view", r)
				}
			}
			if host.FinalAccuracy < 0.85 {
				t.Fatalf("accuracy %.3f across the failover", host.FinalAccuracy)
			}
		})
	}
}

// Wire failover with a worker fail-stop in the same run: the host-side death
// memory survives the controller's reincarnation (and is re-taught to a cold
// one), and the death is counted once.
func TestRunWorkerCtrlFailoverWithWorkerCrash(t *testing.T) {
	for _, cold := range []bool{false, true} {
		cfg := ctrlFailoverConfig(t, 68, cold)
		cfg.Crash = map[int]int{3: 10}
		cfg.FailTimeout = 2 * time.Second
		reports := runWorkersBounded(t, cfg, memWorld(cfg.N))
		host := reports[0]
		if host.CtrlRestarts != 1 || host.Failures != 1 {
			t.Fatalf("cold=%v: restarts=%d failures=%d, want 1/1", cold, host.CtrlRestarts, host.Failures)
		}
		if host.Alive[3] || reports[3].Completed[0] {
			t.Fatalf("cold=%v: crashed rank alive=%v completed=%v", cold, host.Alive[3], reports[3].Completed[0])
		}
		for r := 0; r < 3; r++ {
			if !reports[r].Completed[0] {
				t.Fatalf("cold=%v: survivor %d did not complete", cold, r)
			}
		}
	}
}
