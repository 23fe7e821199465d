package engine_test

import (
	"strings"
	"testing"

	"partialreduce/internal/baselines"
	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
	"partialreduce/internal/health"
	"partialreduce/internal/hetero"
	"partialreduce/internal/testutil"
)

// runDetailed builds a cluster for cfg and runs P-Reduce, returning the
// cluster and the controller-side observables.
func runDetailed(t *testing.T, cfg cluster.Config, pcfg engine.PReduceConfig) (*cluster.Cluster, *engine.RunInfo) {
	t.Helper()
	p := engine.NewPReduce(pcfg)
	c, err := cluster.New(cfg, p.Name())
	if err != nil {
		t.Fatal(err)
	}
	info, err := p.RunDetailed(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, &info
}

// Two of eight workers fail-stop mid-run. P-Reduce excludes the corpses (§4)
// and still reaches the threshold; the corpses stay dead and are reported in
// the controller stats.
func TestPReduceSurvivesCrashes(t *testing.T) {
	cfg := testutil.Config(t, 11)
	cfg.Crashes = hetero.CrashSchedule{
		{Worker: 3, At: 0.5},
		{Worker: 6, At: 0.9},
	}
	c, info := runDetailed(t, cfg, engine.PReduceConfig{P: 3})
	if !info.Result.Converged {
		t.Fatalf("P-Reduce with crashes did not converge: %+v", info.Result)
	}
	if info.Stats.Failures != 2 {
		t.Fatalf("failures = %d, want 2", info.Stats.Failures)
	}
	if !c.Dead[3] || !c.Dead[6] {
		t.Fatalf("dead flags = %v", c.Dead)
	}
	if c.AliveCount() != 6 {
		t.Fatalf("alive = %d, want 6", c.AliveCount())
	}
	// Every surviving replica kept learning past the corpses.
	for _, w := range c.Workers {
		if c.Dead[w.ID] {
			continue
		}
		if acc := c.EvalParams(w.Params()); acc < 0.8 {
			t.Fatalf("survivor %d stuck at accuracy %.3f", w.ID, acc)
		}
	}
}

// A crash that lands while its group is mid-collective aborts the group:
// the survivors re-signal and training continues.
func TestPReduceAbortsInflightGroup(t *testing.T) {
	// On the default network a group's in-flight window (~1 ms) is tiny
	// next to the 100 ms batch, so a random crash time almost never lands
	// mid-collective. Slow the fabric until ring time rivals compute time
	// and sweep a few crash times: at least one must catch a group.
	var aborts int64
	for _, at := range []float64{0.97, 1.31, 1.63} {
		cfg := testutil.Config(t, 12)
		cfg.Net.Bandwidth = 1e8 // ring all-reduce ~70 ms per group
		cfg.Crashes = hetero.CrashSchedule{{Worker: 2, At: at}}
		_, info := runDetailed(t, cfg, engine.PReduceConfig{P: 3})
		if !info.Result.Converged {
			t.Fatalf("crash at %v: did not converge", at)
		}
		aborts += int64(info.Stats.GroupsAborted)
	}
	if aborts == 0 {
		t.Fatal("no group abort observed across crash times")
	}
}

// A crashed worker rejoins from its checkpoint and is re-admitted to
// grouping; the run converges and the rejoin is counted.
func TestPReduceCrashRejoin(t *testing.T) {
	cfg := testutil.Config(t, 13)
	cfg.Crashes = hetero.CrashSchedule{{Worker: 4, At: 0.5, RejoinAt: 1.0}}
	c, info := runDetailed(t, cfg, engine.PReduceConfig{P: 3})
	if !info.Result.Converged {
		t.Fatalf("run with rejoin did not converge: %+v", info.Result)
	}
	if info.Stats.Failures != 1 || info.Stats.Rejoins != 1 {
		t.Fatalf("failures=%d rejoins=%d, want 1/1", info.Stats.Failures, info.Stats.Rejoins)
	}
	if c.Dead[4] {
		t.Fatal("worker 4 still marked dead after rejoin")
	}
	if acc := c.EvalParams(c.Workers[4].Params()); acc < 0.8 {
		t.Fatalf("rejoined worker stuck at accuracy %.3f", acc)
	}
}

// The same schedule against All-Reduce reproduces the paper's asymmetry:
// the first fail-stop halts the global collective and the run misses the
// threshold.
func TestAllReduceHaltsOnCrashSim(t *testing.T) {
	cfg := testutil.Config(t, 11)
	cfg.Crashes = hetero.CrashSchedule{{Worker: 3, At: 1.0}}
	c, err := cluster.New(cfg, "AR")
	if err != nil {
		t.Fatal(err)
	}
	res, err := baselines.NewAllReduce().Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("All-Reduce converged despite a fail-stop: %+v", res)
	}
	if res.RunTime > 2 {
		t.Fatalf("All-Reduce kept running past the crash: RunTime=%v", res.RunTime)
	}
}

// Overlapped P-Reduce models no faults, membership changes or watchdog, and
// must refuse each instead of silently ignoring it.
func TestOverlapRejectsCrashes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		set      func(*cluster.Config)
		watchdog bool
	}{
		{name: "crashes", set: func(cfg *cluster.Config) { cfg.Crashes = hetero.CrashSchedule{{Worker: 1, At: 1.0}} }},
		{name: "partitions", set: func(cfg *cluster.Config) {
			cfg.Partitions = hetero.PartitionSchedule{{Ranks: []int{0, 1, 2, 3}, From: 0, Until: 1e6}}
		}},
		{name: "elastic", set: func(cfg *cluster.Config) {
			cfg.Elastic = hetero.ElasticSchedule{{Worker: 7, AfterUpdates: 5, Kind: hetero.ElasticDrain}}
		}},
		{name: "initial", set: func(cfg *cluster.Config) { cfg.Initial = 6 }},
		{name: "watchdog", set: func(*cluster.Config) {}, watchdog: true},
	} {
		cfg := testutil.Config(t, 14)
		tc.set(&cfg)
		c, err := cluster.New(cfg, "CON+OV P=3")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.watchdog {
			c.Health = health.New(health.SLO{})
		}
		_, err = engine.NewPReduce(engine.PReduceConfig{P: 3, Overlap: true}).Run(c)
		if err == nil || !strings.Contains(err.Error(), "overlapped") {
			t.Fatalf("overlap with %s: err %v, want a refusal", tc.name, err)
		}
	}
}

// Same seed + same fault schedule => bit-identical metrics, for both
// weighting modes. This is the acceptance criterion that makes fault
// experiments debuggable: a failure replays exactly.
func TestSeedReplayDeterminismWithCrashes(t *testing.T) {
	sched := hetero.CrashSchedule{
		{Worker: 2, At: 0.5},
		{Worker: 5, At: 0.8, RejoinAt: 1.2},
	}
	for _, pcfg := range []engine.PReduceConfig{
		{P: 3},
		{P: 3, Weighting: controller.Dynamic, Approx: controller.ClosestIteration},
	} {
		run := func() (float64, float64, int, controller.Stats) {
			cfg := testutil.Config(t, 21)
			cfg.Crashes = sched
			_, info := runDetailed(t, cfg, pcfg)
			r := info.Result
			return r.RunTime, r.FinalAccuracy, r.Updates, info.Stats
		}
		t1, a1, u1, s1 := run()
		t2, a2, u2, s2 := run()
		if t1 != t2 || a1 != a2 || u1 != u2 {
			t.Fatalf("%s: non-deterministic metrics: (%v,%v,%d) vs (%v,%v,%d)",
				engine.NewPReduce(pcfg).Name(), t1, a1, u1, t2, a2, u2)
		}
		if s1 != s2 {
			t.Fatalf("%s: non-deterministic stats: %+v vs %+v", engine.NewPReduce(pcfg).Name(), s1, s2)
		}
		if s1.Failures != 2 || s1.Rejoins != 1 {
			t.Fatalf("%s: schedule not applied: %+v", engine.NewPReduce(pcfg).Name(), s1)
		}
	}
}

// Schedules violating basic sanity are rejected at cluster construction.
func TestCrashScheduleValidate(t *testing.T) {
	bad := []hetero.CrashSchedule{
		{{Worker: -1, At: 1}},
		{{Worker: 8, At: 1}},
		{{Worker: 1, At: -0.5}},
		{{Worker: 1, At: 1}, {Worker: 1, At: 2}}, // double crash
	}
	for i, s := range bad {
		cfg := testutil.Config(t, 15)
		cfg.Crashes = s
		if _, err := cluster.New(cfg, "CON P=3"); err == nil {
			t.Fatalf("bad schedule %d accepted: %v", i, s)
		}
	}
	// Killing every worker is rejected; killing all but one is not.
	all := make(hetero.CrashSchedule, 0, 8)
	for w := 0; w < 8; w++ {
		all = append(all, hetero.CrashEvent{Worker: w, At: float64(w + 1)})
	}
	cfg := testutil.Config(t, 15)
	cfg.Crashes = all
	if _, err := cluster.New(cfg, "CON P=3"); err == nil {
		t.Fatal("schedule killing every worker accepted")
	}
	cfg.Crashes = all[1:]
	if _, err := cluster.New(cfg, "CON P=3"); err != nil {
		t.Fatalf("schedule leaving one survivor rejected: %v", err)
	}
}

// RandomCrashes is a pure function of its arguments.
func TestRandomCrashesDeterministic(t *testing.T) {
	a := hetero.RandomCrashes(8, 0.5, 100, 42)
	b := hetero.RandomCrashes(8, 0.5, 100, 42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if err := a.Validate(8, 1); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	for _, e := range a {
		if e.Worker == 0 {
			t.Fatal("worker 0 must be spared")
		}
		if e.At <= 0 || e.At >= 100 {
			t.Fatalf("crash time %v outside (0,100)", e.At)
		}
	}
	if c := hetero.RandomCrashes(8, 1, 100, 7); len(c) != 7 {
		t.Fatalf("rate 1 should crash all but worker 0, got %d events", len(c))
	}
	if c := hetero.RandomCrashes(8, 0, 100, 7); c != nil {
		t.Fatalf("rate 0 should be empty, got %v", c)
	}
}
