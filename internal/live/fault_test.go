package live

import (
	"strings"
	"sync"
	"testing"
	"time"

	"partialreduce/internal/controller"
	"partialreduce/internal/transport"
)

// The headline fault-tolerance property (§4): a worker crashing mid-training
// — with its ready signal in flight, so the controller forms a group
// containing the corpse — must not stop the run. The survivors detect the
// death inside the collective, roll back, re-signal, and finish training to
// full quality.
func TestLiveCrashSurvivors(t *testing.T) {
	cfg := liveConfig(t, 50)
	cfg.Crash = map[int]int{3: 10}
	cfg.FailTimeout = 2 * time.Second

	rep, err := Run(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalAccuracy < 0.9 {
		t.Fatalf("accuracy %.3f after crash, want >= 0.9", rep.FinalAccuracy)
	}
	if rep.Failures != 1 {
		t.Fatalf("failures = %d, want 1", rep.Failures)
	}
	if rep.Alive[3] {
		t.Fatal("crashed worker still marked alive")
	}
	if rep.Completed[3] {
		t.Fatal("crashed worker marked completed")
	}
	if rep.WorkerIters[3] >= cfg.Iters {
		t.Fatalf("crashed worker ran %d iters, want < %d", rep.WorkerIters[3], cfg.Iters)
	}
	for id := 0; id < 3; id++ {
		if !rep.Completed[id] {
			t.Fatalf("survivor %d did not complete", id)
		}
		if rep.WorkerIters[id] < cfg.Iters {
			t.Fatalf("survivor %d stopped at %d/%d", id, rep.WorkerIters[id], cfg.Iters)
		}
	}
	if rep.Aborts < 1 {
		t.Fatalf("aborts = %d, want >= 1 (a group formed with the corpse must be torn down)", rep.Aborts)
	}
	if rep.Rejoins != 0 {
		t.Fatalf("rejoins = %d, want 0", rep.Rejoins)
	}
}

// Two concurrent crashes with P=2 over N=4: the two survivors keep grouping
// with each other and finish.
func TestLiveTwoCrashes(t *testing.T) {
	cfg := liveConfig(t, 51)
	cfg.Crash = map[int]int{1: 8, 3: 14}
	cfg.FailTimeout = 2 * time.Second

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
	cfg.FailTimeout = 2 * time.Second

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

// Checkpoint-based rejoin: the crashed worker restarts from its snapshot,
// re-enters the cluster, and finishes its iterations like everyone else.
func TestLiveCrashRejoin(t *testing.T) {
	cfg := liveConfig(t, 53)
	cfg.Crash = map[int]int{2: 10}
	cfg.Rejoin = map[int]time.Duration{2: 30 * time.Millisecond}
	cfg.FailTimeout = 2 * time.Second

	rep, err := Run(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 1 || rep.Rejoins != 1 {
		t.Fatalf("failures=%d rejoins=%d, want 1/1", rep.Failures, rep.Rejoins)
	}
	if !rep.Alive[2] {
		t.Fatal("rejoined worker not alive at the end")
	}
	for id := 0; id < cfg.N; id++ {
		if !rep.Completed[id] {
			t.Fatalf("worker %d did not complete (rejoin should restore full strength)", id)
		}
		if rep.WorkerIters[id] < cfg.Iters {
			t.Fatalf("worker %d stopped at %d/%d", id, rep.WorkerIters[id], cfg.Iters)
		}
	}
	if rep.FinalAccuracy < 0.9 {
		t.Fatalf("accuracy %.3f after rejoin", rep.FinalAccuracy)
	}
}

// Crash under dynamic weighting: the staleness-aware weight generator must
// keep working as the survivor set shrinks.
func TestLiveCrashDynamicWeighting(t *testing.T) {
	cfg := liveConfig(t, 54)
	cfg.Weighting = controller.Dynamic
	cfg.Crash = map[int]int{1: 15}
	cfg.FailTimeout = 2 * time.Second
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
		func(c *Config) { c.Crash = map[int]int{9: 5} },                                          // out of range
		func(c *Config) { c.Crash = map[int]int{1: 0} },                                          // iter < 1
		func(c *Config) { c.Crash = map[int]int{1: c.Iters + 1} },                                // iter > Iters
		func(c *Config) { c.Rejoin = map[int]time.Duration{1: time.Millisecond} },                // rejoin w/o crash
		func(c *Config) { c.FailTimeout = -time.Second },                                         // negative timeout
		func(c *Config) { c.Crash = map[int]int{0: 1, 1: 1, 2: 1}; c.FailTimeout = time.Second }, // too many
		func(c *Config) { // negative rejoin delay
			c.Crash = map[int]int{1: 5}
			c.FailTimeout = time.Second
			c.Rejoin = map[int]time.Duration{1: -time.Millisecond}
		},
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
	good.Rejoin = map[int]time.Duration{1: time.Millisecond}
	good.FailTimeout = time.Second
	if err := good.Validate(); err != nil {
		t.Fatalf("valid fault config rejected: %v", err)
	}

	// Crashes without FailTimeout: the sweep is Run's, so Run refuses and
	// the configuration itself — all RunWorker checks — is valid.
	bare := liveConfig(t, 55)
	bare.Crash = map[int]int{1: 5}
	if _, err := Run(bare, memWorld(bare.N)); err == nil || !strings.Contains(err.Error(), "FailTimeout") {
		t.Fatalf("Run with crashes and no FailTimeout: %v", err)
	}
	if err := bare.Validate(); err != nil {
		t.Fatalf("crash config without FailTimeout rejected for RunWorker: %v", err)
	}
}

// The multi-process protocol under a crash: a non-host rank fails stop with
// its ready signal in flight; the host's receive loops and the survivors'
// failure reports converge on excluding it; the final gather runs over the
// survivor roster.
func TestRunWorkerCrash(t *testing.T) {
	cfg := liveConfig(t, 57)
	cfg.Crash = map[int]int{2: 10} // no FailTimeout: RunWorker's detector is its receive loops

	world := memWorld(cfg.N)
	reports := make([]*Report, cfg.N)
	errs := make([]error, cfg.N)
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for r := 0; r < cfg.N; r++ {
			r := r
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
	case <-time.After(60 * time.Second):
		t.Fatal("multi-process run hung after crash")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if reports[2].Completed[0] {
		t.Fatal("crashed rank reported completion")
	}
	if reports[2].WorkerIters[0] >= cfg.Iters {
		t.Fatalf("crashed rank ran %d iters", reports[2].WorkerIters[0])
	}
	for _, r := range []int{0, 1, 3} {
		if !reports[r].Completed[0] {
			t.Fatalf("survivor %d did not complete", r)
		}
		if reports[r].WorkerIters[0] < cfg.Iters {
			t.Fatalf("survivor %d stopped at %d/%d", r, reports[r].WorkerIters[0], cfg.Iters)
		}
	}
	if reports[0].FinalAccuracy < 0.85 {
		t.Fatalf("multi-process accuracy %.3f after crash", reports[0].FinalAccuracy)
	}
	// The host's report carries the controller's view of the run.
	host := reports[0]
	if host.Failures != 1 || host.Joins != 0 || host.Drains != 0 || host.Decommissions != 0 {
		t.Fatalf("host report failures=%d joins=%d drains=%d decommissions=%d, want 1/0/0/0",
			host.Failures, host.Joins, host.Drains, host.Decommissions)
	}
	if host.Aborts > 1 {
		t.Fatalf("host report aborts=%d: one death tears down at most the one group holding the corpse", host.Aborts)
	}
	if len(host.Alive) != cfg.N || host.Alive[2] || !host.Alive[0] || !host.Alive[1] || !host.Alive[3] {
		t.Fatalf("host report alive=%v, want everyone but rank 2", host.Alive)
	}
	if reports[1].Failures != 0 || reports[1].Alive != nil {
		t.Fatalf("non-host report carries controller state: %+v", reports[1])
	}
}

// The host rank must refuse to crash, and multi-process rejoin is rejected.
func TestRunWorkerFaultValidation(t *testing.T) {
	cfg := liveConfig(t, 58)
	cfg.Crash = map[int]int{0: 5}
	cfg.FailTimeout = time.Second
	world := memWorld(cfg.N)
	if _, err := RunWorker(cfg, world[0], true); err == nil {
		t.Fatal("controller-host crash accepted")
	}
	cfg = liveConfig(t, 58)
	cfg.Crash = map[int]int{1: 5}
	cfg.Rejoin = map[int]time.Duration{1: time.Millisecond}
	cfg.FailTimeout = time.Second
	if _, err := RunWorker(cfg, world[1], false); err == nil {
		t.Fatal("multi-process rejoin accepted")
	}
}

// The §4 asymmetry, executable: the same crash schedule that P-Reduce
// recovers from (TestLiveCrashSurvivors) kills the live All-Reduce baseline,
// because every All-Reduce iteration needs all N workers at the barrier. The
// run must fail with a peer-down error — and fail promptly, not hang.
func TestLiveAllReduceCrashFails(t *testing.T) {
	cfg := liveConfig(t, 50) // same seed and schedule as the P-Reduce test
	cfg.Crash = map[int]int{3: 10}
	cfg.FailTimeout = 2 * time.Second

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
// the polite post-signal point), and the runtime still recovers via the
// peer-down/abort path plus the staleness backstop.
func TestLiveCrashViaFaultyTransport(t *testing.T) {
	cfg := liveConfig(t, 56)
	cfg.FailTimeout = 1500 * time.Millisecond

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
