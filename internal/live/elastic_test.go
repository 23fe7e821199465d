package live

import (
	"sync"
	"testing"
	"time"

	"partialreduce/internal/cluster"
	"partialreduce/internal/data"
	"partialreduce/internal/engine"
	"partialreduce/internal/hetero"
	"partialreduce/internal/model"
	"partialreduce/internal/netmodel"
	"partialreduce/internal/optim"
)

// TestLiveElasticScaleOutAndDrain runs the in-process runtime through a
// 4→6→3 staircase with small groups (P=2, the non-lockstep regime): two
// parked ranks bootstrap in mid-run, then three members drain back out.
// Every membership change must complete and none may be condemned.
func TestLiveElasticScaleOutAndDrain(t *testing.T) {
	cfg := liveConfig(t, 21)
	cfg.N = 6
	cfg.P = 2
	cfg.Initial = 4
	cfg.Elastic = hetero.ScaleSchedule(4, 6, 3, 10, 5)
	cfg.Iters = 60

	rep, err := Run(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Joins != 2 || rep.Drains != 3 || rep.Decommissions != 3 {
		t.Fatalf("membership changes incomplete: joins=%d drains=%d decommissions=%d",
			rep.Joins, rep.Drains, rep.Decommissions)
	}
	if rep.Failures != 0 {
		t.Fatalf("graceful churn condemned %d workers", rep.Failures)
	}
	// Drains retire ranks 5, 4, 3: the three lowest founders finish.
	for id, done := range rep.Completed {
		if want := id < 3; done != want {
			t.Fatalf("worker %d completed=%v, want %v", id, done, want)
		}
	}
	alive := 0
	for _, a := range rep.Alive {
		if a {
			alive++
		}
	}
	if alive != 3 {
		t.Fatalf("want 3 members alive at the end, got %d", alive)
	}
	if rep.FinalAccuracy < 0.5 {
		t.Fatalf("final accuracy %.3f: training broken by churn", rep.FinalAccuracy)
	}
}

// TestMultiProcessElastic runs the same 4→6→3 staircase through the
// wire-protocol deployment: one RunWorker per rank, controller hosted on
// rank 0, control plane on transport tags. Ranks 4 and 5 start parked on the
// join stream, bootstrap from a donor mid-run, train, drain back out with
// rank 3, and are dismissed at shutdown. Nobody may error or hang.
func TestMultiProcessElastic(t *testing.T) {
	cfg := liveConfig(t, 23)
	cfg.N = 6
	cfg.P = 2
	cfg.Initial = 4
	cfg.Elastic = hetero.ScaleSchedule(4, 6, 3, 10, 5)
	cfg.Iters = 60

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
		t.Fatal("multi-process elastic run hung")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Drains retire ranks 5, 4, 3; the three lowest founders finish.
	for r := 0; r < cfg.N; r++ {
		if want := r < 3; reports[r].Completed[0] != want {
			t.Fatalf("rank %d completed=%v, want %v", r, reports[r].Completed[0], want)
		}
	}
	// The joiners must actually have trained between admission and drain.
	for _, r := range []int{4, 5} {
		if reports[r].Groups == 0 || reports[r].WorkerIters[0] == 0 {
			t.Fatalf("joiner %d never trained: groups=%d iter=%d",
				r, reports[r].Groups, reports[r].WorkerIters[0])
		}
	}
	if reports[0].FinalAccuracy < 0.5 {
		t.Fatalf("final accuracy %.3f: training broken by churn", reports[0].FinalAccuracy)
	}
	// The host's report carries the same membership counters the in-process
	// runtime reports for this staircase.
	host := reports[0]
	if host.Joins != 2 || host.Drains != 3 || host.Decommissions != 3 {
		t.Fatalf("host report joins=%d drains=%d decommissions=%d, want 2/3/3",
			host.Joins, host.Drains, host.Decommissions)
	}
	if host.Failures != 0 || host.Aborts != 0 {
		t.Fatalf("graceful churn: host report failures=%d aborts=%d", host.Failures, host.Aborts)
	}
	for r, alive := range host.Alive {
		if want := r < 3; alive != want {
			t.Fatalf("host report alive[%d]=%v, want %v", r, alive, want)
		}
	}
}

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
