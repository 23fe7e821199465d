package experiments

import (
	"fmt"
	"io"

	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
)

// ElasticRow is one strategy of the elastic sweep with its membership
// counters (zero for strategies that never change membership).
type ElasticRow struct {
	Strategy      string
	Schedule      string
	Joins         int
	Drains        int
	Decommissions int
	StaleEpochs   int
	Failures      int
	Result        *metrics.Result
}

// ElasticSweepResult compares P-Reduce riding the canonical 8→12→6
// staircase against static-membership references. Everything here is a pure
// function of opts.Seed — the schedule triggers on deterministic update
// counts and the simulator's clock is virtual — so two same-seed runs
// produce byte-identical summary CSVs.
type ElasticSweepResult struct {
	Rows []ElasticRow
}

// Exports offers one summary row per strategy, in printed order.
func (r *ElasticSweepResult) Exports() []Export {
	rs := make([]*metrics.Result, len(r.Rows))
	for i, row := range r.Rows {
		rs[i] = row.Result
	}
	return []Export{{Results: rs}}
}

// RobustnessElastic runs the elastic-membership sweep on the headline
// heterogeneous cell (ResNet-34/CIFAR-10, HL=3): P-Reduce trains through a
// seeded 8→12→6 staircase — four ranks bootstrap-join mid-run, then six
// members gracefully drain — while the static references (P-Reduce and
// All-Reduce on the founding eight) show what elasticity buys and costs.
// All-Reduce cannot scale at all: its barrier needs a fixed world, which is
// exactly the §4 asymmetry the paper's recovery story extends to planned
// membership change.
func RobustnessElastic(opts Options) (*ElasticSweepResult, error) {
	w := opts.workload(CIFAR10Workload(model.ResNet34))
	// Fixed-budget runs: every strategy executes exactly the same number of
	// updates (the threshold is unreachable), so the comparison is accuracy
	// and virtual time at equal synchronization work — the regime where the
	// staircase is guaranteed to complete and leave a reconvergence tail.
	w.Threshold = 0.999
	w.MaxUpdates = 400
	if opts.Quick {
		w.MaxUpdates = 200
	}
	// Joins start an eighth of the way in, one per budget/40 updates; the
	// six drains follow at the same cadence. Full budget: joins at
	// 50,60,70,80 and drains at 90..140, leaving 260 updates on the final 6.
	after := w.MaxUpdates / 8
	step := w.MaxUpdates / 40
	schedule := hetero.ScaleSchedule(8, 12, 6, after, step)

	static := Cell{Workload: w, N: 8, Env: EnvHL, HL: 3, Seed: opts.Seed}
	staircase := static
	staircase.N, staircase.Initial, staircase.Elastic = 12, 8, schedule

	out := &ElasticSweepResult{Rows: []ElasticRow{
		{Strategy: "DYN P=4", Schedule: "8→12→6"},
		{Strategy: "DYN P=4", Schedule: "static 8"},
		{Strategy: "AR", Schedule: "static 8"},
	}}
	var jobs []job
	for i, cell := range []Cell{staircase, static, static} {
		row := &out.Rows[i]
		jobs = append(jobs, job{cell: cell, strategy: row.Strategy, store: func(r cellRun) {
			// The membership counters are the controller's; All-Reduce has
			// no controller and reports zeros.
			row.Result = r.Result
			row.Joins, row.Drains, row.Decommissions = r.Stats.Joins, r.Stats.Drains, r.Stats.Decommissions
			row.StaleEpochs, row.Failures = r.Stats.StaleEpochs, r.Stats.Failures
		}})
	}
	if err := runAll(opts, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the elastic sweep as a table.
func (r *ElasticSweepResult) Format(w io.Writer) {
	fmt.Fprintf(w, "elastic membership sweep (ResNet-34/CIFAR-10, HL=3, capacity 12, fixed update budget):\n")
	fmt.Fprintf(w, "  %-10s %-10s %-7s %-9s %-8s %-13s %-6s %-6s %s\n",
		"strategy", "schedule", "acc", "time(s)", "updates",
		"join/drain/dc", "stale", "failed", "per-update(s)")
	for _, row := range r.Rows {
		res := row.Result
		if res == nil {
			continue
		}
		fmt.Fprintf(w, "  %-10s %-10s %-7.3f %-9.0f %-8d %2d/%2d/%2d      %-6d %-6d %.3f\n",
			row.Strategy, row.Schedule, res.FinalAccuracy, res.RunTime,
			res.Updates, row.Joins, row.Drains, row.Decommissions,
			row.StaleEpochs, row.Failures, res.PerUpdate())
	}
}
