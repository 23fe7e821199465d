package experiments

import (
	"fmt"
	"io"

	"partialreduce/internal/cluster"
	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
)

// PartitionSweepResult reports DYN P=3 under timed two-rank network
// partitions of increasing length, against the same cell with no partition.
// Because the simulator, the schedule, and the jitterless retry model are all
// deterministic, the whole sweep — including the retry/timeout/abort trace in
// Comms — is a pure function of (opts.Seed, durations): running it twice
// yields byte-identical summary CSVs.
type PartitionSweepResult struct {
	Durations []float64         // partition length in batch-compute multiples
	Results   []*metrics.Result // aligned with Durations
}

// RobustnessPartition sweeps partition lengths on the headline heterogeneous
// cell (ResNet-34/CIFAR-10, HL=3, N=8): ranks {6,7} are cut off from the rest
// of the cluster for a window starting a few batches into the run. Groups
// that straddle the cut time out, back off, retry, and finally abort with
// nobody condemned — the controller's bounded-wait recovery path — while
// same-side groups keep training; after the heal the cluster reconverges.
func RobustnessPartition(opts Options, durations []float64) (*PartitionSweepResult, error) {
	if len(durations) == 0 {
		return nil, fmt.Errorf("experiments: need at least one partition duration")
	}
	w := opts.workload(CIFAR10Workload(model.ResNet34))
	batch := w.Profile.BatchCompute

	out := &PartitionSweepResult{Results: make([]*metrics.Result, len(durations))}
	var jobs []job
	for i, dur := range durations {
		out.Durations = append(out.Durations, dur)
		cell := Cell{Workload: w, N: 8, Env: EnvHL, HL: 3, Seed: opts.Seed}
		if dur > 0 {
			cell.Partitions = hetero.PartitionSchedule{{
				Ranks: []int{6, 7},
				From:  5 * batch,
				Until: (5 + dur) * batch,
			}}
			// The live defaults scaled to virtual time: generous per-attempt
			// timeout, exponential backoff, three attempts before the abort.
			cell.Retry = cluster.RetryModel{
				MaxAttempts: 3,
				Timeout:     2 * batch,
				BaseDelay:   0.25 * batch,
				MaxDelay:    batch,
			}
		}
		jobs = append(jobs, job{cell: cell, strategy: "DYN P=3",
			store: func(r cellRun) { out.Results[i] = r.Result }})
	}
	if err := runAll(opts, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// Exports offers one summary row per partition length.
func (r *PartitionSweepResult) Exports() []Export { return []Export{{Results: r.Results}} }

// Format renders the partition sweep as a table.
func (r *PartitionSweepResult) Format(w io.Writer) {
	fmt.Fprintf(w, "partition sweep (ranks {6,7} cut, ResNet-34/CIFAR-10, HL=3, N=8):\n")
	fmt.Fprintf(w, "  %-10s %-12s %-8s %-10s %-8s %-9s %s\n",
		"len(batch)", "DYN P=3", "acc", "time(s)", "retries", "timeouts", "aborts")
	for i, res := range r.Results {
		state := "missed"
		if res.Converged {
			state = "converged"
		}
		fmt.Fprintf(w, "  %-10.1f %-12s %-8.3f %-10.0f %-8d %-9d %d\n",
			r.Durations[i], state, res.FinalAccuracy, timeToThreshold(res),
			res.Comms.Retries, res.Comms.Timeouts, res.Comms.Aborts)
	}
}
