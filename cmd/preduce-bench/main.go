// Command preduce-bench regenerates the paper's tables and figures on the
// simulated cluster and prints them in the paper's layout.
//
// Usage:
//
//	preduce-bench -exp table1            # Table 1 (CIFAR-10 end-to-end grid)
//	preduce-bench -exp fig9 -seed 3      # production-cluster comparison
//	preduce-bench -exp all -quick        # everything, reduced budgets
//
// The experiment IDs are internal/experiments' registry; -h lists them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"partialreduce/internal/experiments"
	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(experiments.IDs(), "|")+"|all")
	seed := flag.Int64("seed", 1, "master seed for datasets, initialization and timing draws")
	quickFlag := flag.Bool("quick", false, "reduced update budgets and thresholds")
	parallel := flag.Int("parallel", 0, "max concurrent cells (0 = GOMAXPROCS)")
	csvDir := flag.String("csv", "", "directory to write plot-ready CSV files into (curves and summaries)")
	comms := flag.Bool("comms", false, "print modeled data-plane traffic (ops, bytes) per exported run")
	tracePath := flag.String("trace", "",
		"instead of -exp, run one traced P-Reduce simulation (ResNet-34/CIFAR-10, production trace, CON P=4) and write its virtual-clock trace here (.json: Chrome trace-event, loadable in Perfetto; .jsonl: streaming event log)")
	traceBuf := flag.Int("trace-buf", 0,
		"trace event-ring capacity (0: default 65536; oldest events drop when full)")
	flag.Parse()

	opts := experiments.Options{Seed: *seed, Quick: *quickFlag, Parallelism: *parallel}

	if *tracePath != "" {
		if err := runTraced(*tracePath, *traceBuf, opts); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		return
	}

	exps, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Printf("=== %s (seed=%d quick=%v) ===\n", e.ID, *seed, *quickFlag)
		rep, err := e.Run(opts)
		if err == nil {
			rep.Format(os.Stdout)
			err = export(e.ID, rep, *csvDir, *comms)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %s ---\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// export handles a report's CSV exports, if it has any: each is written
// into dir (when set) as "<id>.csv", or "<id>-<i>.csv" when there are
// several, and with comms its runs' modeled traffic is printed — the same
// numbers the summary CSV carries in its comms columns.
func export(id string, rep experiments.Report, dir string, comms bool) error {
	ex, ok := rep.(experiments.Exporter)
	if !ok {
		return nil
	}
	exports := ex.Exports()
	for i, e := range exports {
		name := id
		if len(exports) > 1 {
			name = fmt.Sprintf("%s-%d", id, i)
		}
		if dir != "" {
			if err := writeCSV(filepath.Join(dir, name+".csv"), e); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
		for _, r := range e.Results {
			if comms && r != nil {
				fmt.Printf("comms %-18s ops=%6d sent=%.1fMB recv=%.1fMB retries=%d timeouts=%d aborts=%d\n",
					r.Strategy, r.Comms.Ops,
					float64(r.Comms.BytesSent)/1e6, float64(r.Comms.BytesRecv)/1e6,
					r.Comms.Retries, r.Comms.Timeouts, r.Comms.Aborts)
			}
		}
	}
	return nil
}

// writeCSV writes one export to path. A failed create, write or close is an
// error: a sweep whose file was not written must not exit 0.
func writeCSV(path string, e experiments.Export) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := metrics.WriteSummaryCSV
	if e.Curves {
		write = metrics.WriteCurvesCSV
	}
	if err := write(f, e.Results...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced executes one traced P-Reduce simulation and exports its
// virtual-clock trace: Chrome trace-event JSON by default, streaming JSONL
// when the path ends in ".jsonl". Same-seed replays write identical bytes.
func runTraced(path string, buf int, opts experiments.Options) error {
	start := time.Now()
	res, c, err := experiments.TracedRun(opts, buf)
	if err != nil {
		return err
	}
	if err := trace.WriteFile(path, c.Tracer); err != nil {
		return err
	}
	snap := c.Ins.Snapshot()
	fmt.Printf("traced run: %s acc=%.3f events=%d dropped=%d staleness p50=%d p95=%d max=%d (%s)\n",
		res.Strategy, res.FinalAccuracy, c.Tracer.Len(), c.Tracer.Dropped(),
		snap.Staleness.Quantile(0.5), snap.Staleness.Quantile(0.95), snap.Staleness.Max(),
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("trace written to %s\n", path)
	return nil
}
