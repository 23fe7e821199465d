package experiments

import (
	"fmt"
	"io"

	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
)

// AdaptiveRow is one cell of the adaptive-p sweep: fixed-size DYN P=4
// versus ADP P=4 (adaptive group size in [2,4]) on the same seeds.
type AdaptiveRow struct {
	Label    string // "HL=0", "HL=2", "HL=3", "production"
	Seeds    []int64
	Static   []*metrics.Result // DYN P=4, aligned with Seeds
	Adaptive []*metrics.Result // ADP P=4, aligned with Seeds
}

// Speedup returns static/adaptive mean time-to-threshold over the seeds
// where both sides converged (ok=false when no seed qualifies). A value
// above 1 means adaptive-p was faster.
func (r *AdaptiveRow) Speedup() (float64, bool) {
	var s, a float64
	n := 0
	for i := range r.Seeds {
		st, ad := timeToThreshold(r.Static[i]), timeToThreshold(r.Adaptive[i])
		if st > 0 && ad > 0 {
			s += st
			a += ad
			n++
		}
	}
	if n == 0 || a == 0 {
		return 0, false
	}
	return s / a, true
}

// AdaptiveSweepResult is the full static-vs-adaptive comparison. Each run's
// Workload is rewritten to "<name>/<row>/seed<k>" so its CSV summary row
// stays unique.
type AdaptiveSweepResult struct {
	Rows []AdaptiveRow
}

// RobustnessAdaptive compares fixed-size dynamic-weight P-Reduce ("DYN
// P=4") against adaptive group size ("ADP P=4", groups of 2 to 4) on
// ResNet-34/CIFAR-10 with N=8, across heterogeneity levels and a
// regime-switching production trace, over several seeds. The claim
// (TestAdaptiveSpeedupClaim): shrinking groups when the signal-cadence
// dispersion is high reaches the threshold at least 1.10× sooner at HL=3
// and on the production trace. The whole sweep is a pure function of
// (opts, seeds).
func RobustnessAdaptive(opts Options, seeds int) (*AdaptiveSweepResult, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("experiments: need at least one seed")
	}
	w := opts.workload(CIFAR10Workload(model.ResNet34))
	rows := []struct {
		label string
		env   EnvKind
		hl    int
	}{
		{"HL=0", EnvHL, 0}, // no accelerator sharing: the homogeneous control
		{"HL=2", EnvHL, 2},
		{"HL=3", EnvHL, 3},
		{"production", EnvProduction, 0},
	}

	out := &AdaptiveSweepResult{Rows: make([]AdaptiveRow, len(rows))}
	var jobs []job
	for ri, row := range rows {
		r := &out.Rows[ri]
		r.Label = row.label
		r.Static, r.Adaptive = make([]*metrics.Result, seeds), make([]*metrics.Result, seeds)
		for i := 0; i < seeds; i++ {
			seed := opts.Seed + int64(i)
			r.Seeds = append(r.Seeds, seed)
			cell := Cell{Workload: w, N: 8, Env: row.env, HL: row.hl, Seed: seed}
			tag := func(res *metrics.Result) *metrics.Result {
				res.Workload = fmt.Sprintf("%s/%s/seed%d", res.Workload, row.label, seed)
				return res
			}
			jobs = append(jobs,
				job{cell: cell, strategy: "DYN P=4", store: func(res cellRun) { r.Static[i] = tag(res.Result) }},
				job{cell: cell, strategy: "ADP P=4", store: func(res cellRun) { r.Adaptive[i] = tag(res.Result) }},
			)
		}
	}
	if err := runAll(opts, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// Exports offers one summary row per (strategy, row, seed) run.
func (r *AdaptiveSweepResult) Exports() []Export {
	var rs []*metrics.Result
	for _, row := range r.Rows {
		for i := range row.Seeds {
			rs = append(rs, row.Static[i], row.Adaptive[i])
		}
	}
	return []Export{{Results: rs}}
}

// Format renders the sweep as a per-row table with the mean speedup band.
func (r *AdaptiveSweepResult) Format(w io.Writer) {
	fmt.Fprintf(w, "adaptive-p vs static P-Reduce (ResNet-34/CIFAR-10, N=8, DYN P=4 vs ADP P=4 [2,4]):\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-10s", row.Label)
		staticFail, adaptiveFail := 0, 0
		for i, seed := range row.Seeds {
			st, ad := timeToThreshold(row.Static[i]), timeToThreshold(row.Adaptive[i])
			switch {
			case st == 0 || ad == 0:
				fmt.Fprintf(w, "  seed %d: n/a", seed)
			default:
				fmt.Fprintf(w, "  seed %d: %.0fs/%.0fs", seed, st, ad)
			}
			if !row.Static[i].Converged {
				staticFail++
			}
			if !row.Adaptive[i].Converged {
				adaptiveFail++
			}
		}
		if sp, ok := row.Speedup(); ok {
			fmt.Fprintf(w, "  mean speedup %.2fx", sp)
		}
		if staticFail > 0 || adaptiveFail > 0 {
			fmt.Fprintf(w, "  (missed: static %d, adaptive %d)", staticFail, adaptiveFail)
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "times are static/adaptive virtual seconds to the accuracy threshold; >1x means adaptive is faster\n")
}
