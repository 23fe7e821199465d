package live

import (
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/data"
	"partialreduce/internal/engine"
	"partialreduce/internal/hetero"
	"partialreduce/internal/model"
	"partialreduce/internal/netmodel"
	"partialreduce/internal/optim"
)

// staircase runs a 4→6→3 staircase with small groups (P=2, the non-lockstep
// regime): ranks 4 and 5 start parked on the join stream, bootstrap from a
// donor mid-run and train, then three members drain back out and the parked
// ranks are dismissed at shutdown. Every membership change must complete and
// none may be condemned.
func staircase(t *testing.T, run entry, seed int64) {
	t.Helper()
	cfg := liveConfig(t, seed)
	cfg.N = 6
	cfg.P = 2
	cfg.Initial = 4
	cfg.Elastic = hetero.ScaleSchedule(4, 6, 3, 10, 5)
	cfg.Iters = 60

	rep := run(t, cfg, memWorld(cfg.N))
	if rep.Joins != 2 || rep.Drains != 3 || rep.Decommissions != 3 {
		t.Fatalf("membership changes incomplete: joins=%d drains=%d decommissions=%d",
			rep.Joins, rep.Drains, rep.Decommissions)
	}
	if rep.Failures != 0 || rep.Aborts != 0 {
		t.Fatalf("graceful churn: failures=%d aborts=%d", rep.Failures, rep.Aborts)
	}
	// Drains retire ranks 5, 4, 3: the three lowest founders finish and are
	// the membership at the end.
	for id := 0; id < cfg.N; id++ {
		if want := id < 3; rep.Completed[id] != want || rep.Alive[id] != want {
			t.Fatalf("worker %d completed=%v alive=%v, want both %v", id, rep.Completed[id], rep.Alive[id], want)
		}
	}
	// A joiner starts at its donor's iteration and must have moved past it by
	// the time its drain lands at its own ready point.
	for _, id := range []int{4, 5} {
		if rep.WorkerIters[id] == 0 {
			t.Fatalf("joiner %d never trained", id)
		}
	}
	if rep.FinalAccuracy < 0.5 {
		t.Fatalf("final accuracy %.3f: training broken by churn", rep.FinalAccuracy)
	}
}

func TestLiveElasticScaleOutAndDrain(t *testing.T) { staircase(t, runBounded, 21) }
func TestMultiProcessElastic(t *testing.T)         { staircase(t, runWorkersFolded, 23) }

// TestSimLiveElasticDifferential pushes the same seeded 8→12→6 schedule
// through both backends — the event-driven simulator and the in-process
// live runtime — at P = capacity, the lockstep regime where every group is
// one cluster-wide iteration. Both must report identical join / drain /
// decommission counts, zero condemned workers, and the same number of
// synchronization updates: each of the four joins collapses exactly one
// round via iteration fast-forward (the joiner's first signal is one ahead
// of the cohort), so a 60-iteration live run executes 56 groups and the sim
// is budgeted to exactly that.
func TestSimLiveElasticDifferential(t *testing.T) {
	const (
		seed     = 7
		capacity = 12
		initial  = 8
		final    = 6
		iters    = 60
		joins    = capacity - initial
		updates  = iters - joins // one round collapsed per join
	)
	schedule := hetero.ScaleSchedule(initial, capacity, final, 10, 4)

	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: 4, Dim: 12, Examples: 1600, Separation: 3.2, Noise: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.8)
	spec := model.Spec{Inputs: 12, Hidden: []int{16}, Classes: 4}
	opt := optim.Config{LR: 0.05, Momentum: 0.9}

	// Live: in-process runtime over a memory transport, Iters budget.
	liveCfg := Config{
		N: capacity, P: capacity, Initial: initial, Elastic: schedule,
		Spec: spec, Seed: seed, Train: train, Test: test,
		BatchSize: 16, Optimizer: opt, Iters: iters,
	}
	rep, err := Run(liveCfg, memWorld(capacity))
	if err != nil {
		t.Fatal(err)
	}

	// Sim: same schedule, same workload, update budget matching the live
	// group count.
	profile := model.Profile{Name: "diff", WireParams: 100_000, BatchCompute: 0.1, BytesPerParam: 4}
	simCfg := cluster.Config{
		N: capacity, Initial: initial, Elastic: schedule,
		Spec: spec, Seed: seed, Train: train, Test: test,
		BatchSize: 16, Optimizer: opt,
		Profile:   profile,
		Hetero:    hetero.NewHomogeneous(capacity, profile.BatchCompute, 0.05, seed),
		Net:       netmodel.Default(),
		Threshold: 0.999, // unreachable: run to the update budget
		EvalEvery: 20, MaxUpdates: updates, MaxTime: 1e6,
	}
	c, err := cluster.New(simCfg, "elastic-diff")
	if err != nil {
		t.Fatal(err)
	}
	info, err := engine.NewPReduce(engine.PReduceConfig{P: capacity}).RunDetailed(c)
	if err != nil {
		t.Fatal(err)
	}
	st := info.Stats

	if rep.Groups != updates || c.Updates() != updates {
		t.Fatalf("update counts diverge: live groups=%d sim updates=%d want %d",
			rep.Groups, c.Updates(), updates)
	}
	if rep.Joins != st.Joins || rep.Drains != st.Drains || rep.Decommissions != st.Decommissions {
		t.Fatalf("membership counts diverge: live %d/%d/%d sim %d/%d/%d",
			rep.Joins, rep.Drains, rep.Decommissions, st.Joins, st.Drains, st.Decommissions)
	}
	if rep.Joins != joins || rep.Drains != capacity-final || rep.Decommissions != capacity-final {
		t.Fatalf("schedule incomplete: joins=%d drains=%d decommissions=%d",
			rep.Joins, rep.Drains, rep.Decommissions)
	}
	if rep.Failures != 0 || st.Failures != 0 {
		t.Fatalf("elastic churn condemned workers: live=%d sim=%d", rep.Failures, st.Failures)
	}
	// The six survivors (ranks 0..5) complete on the live side; the same
	// six are the sim's final membership.
	for id, done := range rep.Completed {
		if want := id < final; done != want {
			t.Fatalf("live worker %d completed=%v, want %v", id, done, want)
		}
	}
	if got := c.AliveCount(); got != final {
		t.Fatalf("sim final membership %d, want %d", got, final)
	}
}
