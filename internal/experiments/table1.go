package experiments

import (
	"fmt"
	"io"
	"strings"

	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
)

// Table1Strategies are the paper's columns in order: three collective
// methods, four parameter-server methods, and partial reduce at P=3 and P=5
// with constant and dynamic weighting. BK uses 3 backup workers of N=8, as
// in §5.2.1.
var Table1Strategies = []string{
	"AR", "ER", "AD",
	"PS BSP", "PS ASP", "PS HETE", "PS BK-3",
	"CON P=3", "DYN P=3", "CON P=5", "DYN P=5",
}

// Table1Block is one model's rows: every strategy at every heterogeneity
// level.
type Table1Block struct {
	Model string
	HLs   []int
	// Cells[hl][strategy] holds the run result.
	Cells map[int]map[string]*metrics.Result
}

// Table1Result is the full table.
type Table1Result struct {
	Blocks []Table1Block
}

// Table1 reproduces the end-to-end CIFAR-10 comparison (§5.2): N=8 workers,
// ResNet-34 and VGG-19 at HL ∈ {1,3}, DenseNet-121 at HL ∈ {1,2}, reporting
// run time, #updates, and per-update time per strategy.
func Table1(opts Options) (*Table1Result, error) {
	type blockSpec struct {
		profile model.Profile
		hls     []int
	}
	specs := []blockSpec{
		{model.ResNet34, []int{1, 3}},
		{model.VGG19, []int{1, 3}},
		{model.DenseNet121, []int{1, 2}},
	}

	out := &Table1Result{}
	var jobs []job
	for _, spec := range specs {
		w := opts.workload(CIFAR10Workload(spec.profile))
		cells := map[int]map[string]*metrics.Result{}
		out.Blocks = append(out.Blocks, Table1Block{Model: spec.profile.Name, HLs: spec.hls, Cells: cells})
		for _, hl := range spec.hls {
			cells[hl] = map[string]*metrics.Result{}
			for _, strat := range Table1Strategies {
				jobs = append(jobs, job{
					cell:     Cell{Workload: w, N: 8, Env: EnvHL, HL: hl, Seed: opts.Seed},
					strategy: strat,
					store:    func(r cellRun) { cells[hl][strat] = r.Result },
				})
			}
		}
	}
	if err := runAll(opts, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the table in the paper's row layout (run time, #updates,
// per-update time per model × HL), then the fastest converged strategy per
// row. Unconverged cells print N/A, matching the paper's treatment of ER.
func (t *Table1Result) Format(w io.Writer) {
	head := fmt.Sprintf("%-12s %-14s %3s", "Model", "Metric", "HL")
	for _, s := range Table1Strategies {
		head += fmt.Sprintf(" %9s", s)
	}
	fmt.Fprintln(w, head)
	fmt.Fprintln(w, strings.Repeat("-", len(head)))
	for _, b := range t.Blocks {
		for _, metric := range []string{"run time (s)", "#updates", "per-update(s)"} {
			for _, hl := range b.HLs {
				row := fmt.Sprintf("%-12s %-14s %3d", b.Model, metric, hl)
				for _, s := range Table1Strategies {
					res := b.Cells[hl][s]
					row += fmt.Sprintf(" %9s", table1Cell(res, metric))
				}
				fmt.Fprintln(w, row)
			}
		}
		fmt.Fprintln(w)
	}
	for _, b := range t.Blocks {
		for _, hl := range b.HLs {
			if name, best := t.Best(b.Model, hl); best != nil {
				fmt.Fprintf(w, "best run time %s HL=%d: %s (%.0fs)\n", b.Model, hl, name, best.RunTime)
			}
		}
	}
}

// Exports offers one summary row per cell. The walk follows the printed
// order (block, HL, strategy) so the CSV is byte-identical across runs —
// ranging over the Cells maps would randomize the rows.
func (t *Table1Result) Exports() []Export {
	var all []*metrics.Result
	for _, b := range t.Blocks {
		for _, hl := range b.HLs {
			for _, s := range Table1Strategies {
				all = append(all, b.Cells[hl][s])
			}
		}
	}
	return []Export{{Results: all}}
}

func table1Cell(r *metrics.Result, metric string) string {
	if r == nil {
		return "-"
	}
	if !r.Converged {
		return "N/A"
	}
	switch metric {
	case "run time (s)":
		return fmt.Sprintf("%.0f", r.RunTime)
	case "#updates":
		return fmt.Sprintf("%d", r.Updates)
	default:
		return fmt.Sprintf("%.3f", r.PerUpdate())
	}
}

// Best returns the strategy with the lowest converged run time for a block
// and HL, mirroring the paper's bold-font marking.
func (t *Table1Result) Best(modelName string, hl int) (string, *metrics.Result) {
	for _, b := range t.Blocks {
		if b.Model != modelName {
			continue
		}
		var bestName string
		var best *metrics.Result
		for _, s := range Table1Strategies {
			r := b.Cells[hl][s]
			if r == nil || !r.Converged {
				continue
			}
			if best == nil || r.RunTime < best.RunTime {
				best, bestName = r, s
			}
		}
		return bestName, best
	}
	return "", nil
}
