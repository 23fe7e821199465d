package experiments

import (
	"fmt"
	"io"

	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
)

// RobustnessResult aggregates the headline comparison across seeds: the
// total-runtime speedup of dynamic partial reduce over All-Reduce on the
// heterogeneous CIFAR-10 cell, per seed.
type RobustnessResult struct {
	Seeds    []int64
	Speedups []float64 // aligned with Seeds; 0 when either side failed
	ARFail   int       // seeds where AR missed the threshold
	DYNFail  int       // seeds where DYN missed the threshold
}

// Robustness reruns the headline AR-vs-DYN comparison (ResNet-34/CIFAR-10,
// HL=3, N=8) across several seeds — dataset, initialization, and timing
// draws all change — and reports the per-seed speedups. The paper's claim
// band is 1.21×–2×.
func Robustness(opts Options, seeds int) (*RobustnessResult, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("experiments: need at least one seed")
	}
	w := opts.workload(CIFAR10Workload(model.ResNet34))
	out := &RobustnessResult{}

	cells := make([]Cell, seeds)
	for i := range cells {
		seed := opts.Seed + int64(i)
		out.Seeds = append(out.Seeds, seed)
		cells[i] = Cell{Workload: w, N: 8, Env: EnvHL, HL: 3, Seed: seed}
	}
	results, err := arVersusDyn(opts, cells)
	if err != nil {
		return nil, err
	}
	out.Speedups = make([]float64, seeds)
	for i, p := range results {
		switch {
		case !p.ar.Converged:
			out.ARFail++
		case !p.dyn.Converged:
			out.DYNFail++
		default:
			out.Speedups[i] = p.ar.RunTime / p.dyn.RunTime
		}
	}
	return out, nil
}

// arVsDyn is the headline pair on one cell.
type arVsDyn struct{ ar, dyn *metrics.Result }

// arVersusDyn runs All-Reduce and DYN P=3 on every cell.
func arVersusDyn(opts Options, cells []Cell) ([]arVsDyn, error) {
	results := make([]arVsDyn, len(cells))
	var jobs []job
	for i, cell := range cells {
		jobs = append(jobs,
			job{cell: cell, strategy: "AR", store: func(r cellRun) { results[i].ar = r.Result }},
			job{cell: cell, strategy: "DYN P=3", store: func(r cellRun) { results[i].dyn = r.Result }},
		)
	}
	return results, runAll(opts, jobs)
}

// timeToThreshold is a run's virtual seconds to the accuracy threshold, 0
// when it missed.
func timeToThreshold(r *metrics.Result) float64 {
	if r.Converged {
		return r.RunTime
	}
	return 0
}

// CrashSweepResult compares DYN P=3 against AR under deterministic
// fail-stop schedules of increasing crash rate (§4's fault-tolerance claim).
type CrashSweepResult struct {
	Rates        []float64
	Crashes      []int // scheduled crashes per rate
	DYNConverged []bool
	DYNAccuracy  []float64
	DYNTime      []float64 // virtual seconds to threshold (0 if missed)
	ARConverged  []bool
}

// RobustnessCrash sweeps crash rates on the headline heterogeneous cell
// (ResNet-34/CIFAR-10, HL=3, N=8). For each rate a seeded schedule is drawn
// once and replayed against both strategies, so the comparison is apples to
// apples: P-Reduce excludes the corpses and keeps training, while All-Reduce
// halts at the first fail-stop and is recorded as not converged. The whole
// sweep is a pure function of (opts.Seed, rates).
func RobustnessCrash(opts Options, rates []float64) (*CrashSweepResult, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("experiments: need at least one crash rate")
	}
	w := opts.workload(CIFAR10Workload(model.ResNet34))
	// Crashes land inside the first ~40 batch-times. Both strategies need
	// several times that long to reach the threshold (AR pays ~2 batch-times
	// per round under HL=3, DYN ~100 partial reduces), so every scheduled
	// crash fires while training is still in progress: All-Reduce halts
	// mid-run while P-Reduce has to absorb the loss, not outrun it.
	horizon := w.Profile.BatchCompute * 40

	out := &CrashSweepResult{}
	cells := make([]Cell, len(rates))
	for i, rate := range rates {
		sched := hetero.RandomCrashes(8, rate, horizon, opts.Seed+int64(i)*101)
		out.Rates = append(out.Rates, rate)
		out.Crashes = append(out.Crashes, len(sched))
		cells[i] = Cell{Workload: w, N: 8, Env: EnvHL, HL: 3, Seed: opts.Seed, Crashes: sched}
	}
	results, err := arVersusDyn(opts, cells)
	if err != nil {
		return nil, err
	}
	for _, p := range results {
		out.ARConverged = append(out.ARConverged, p.ar.Converged)
		out.DYNConverged = append(out.DYNConverged, p.dyn.Converged)
		out.DYNAccuracy = append(out.DYNAccuracy, p.dyn.FinalAccuracy)
		out.DYNTime = append(out.DYNTime, timeToThreshold(p.dyn))
	}
	return out, nil
}

// Format renders the crash sweep as a table.
func (r *CrashSweepResult) Format(w io.Writer) {
	fmt.Fprintf(w, "crash-rate sweep (ResNet-34/CIFAR-10, HL=3, N=8):\n")
	fmt.Fprintf(w, "  %-6s %-8s %-12s %-10s %-10s %s\n",
		"rate", "crashes", "DYN P=3", "acc", "time(s)", "AR")
	for i := range r.Rates {
		dyn, ar := "missed", "halted"
		if r.DYNConverged[i] {
			dyn = "converged"
		}
		if r.ARConverged[i] {
			ar = "converged"
		}
		fmt.Fprintf(w, "  %-6.2f %-8d %-12s %-10.3f %-10.0f %s\n",
			r.Rates[i], r.Crashes[i], dyn, r.DYNAccuracy[i], r.DYNTime[i], ar)
	}
}

// Format renders per-seed speedups and the min/mean/max band.
func (r *RobustnessResult) Format(w io.Writer) {
	fmt.Fprintf(w, "DYN P=3 total-runtime speedup over AR (ResNet-34/CIFAR-10, HL=3):\n")
	var sum, minV, maxV float64
	count := 0
	for i, s := range r.Speedups {
		if s == 0 {
			fmt.Fprintf(w, "  seed %-3d  (did not converge)\n", r.Seeds[i])
			continue
		}
		fmt.Fprintf(w, "  seed %-3d  %.2fx\n", r.Seeds[i], s)
		sum += s
		if count == 0 || s < minV {
			minV = s
		}
		if s > maxV {
			maxV = s
		}
		count++
	}
	if count > 0 {
		fmt.Fprintf(w, "band: min %.2fx  mean %.2fx  max %.2fx over %d seeds (paper: 1.21x-2x)\n",
			minV, sum/float64(count), maxV, count)
	}
}
