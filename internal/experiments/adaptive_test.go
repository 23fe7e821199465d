package experiments

import (
	"bytes"
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/trace"
)

// runAdaptiveTraced runs one quick adaptive-p cell with tracing enabled.
func runAdaptiveTraced(t *testing.T, seed int64) (*metrics.Result, *cluster.Cluster) {
	t.Helper()
	cell := Cell{
		Workload: Options{Quick: true}.workload(CIFAR10Workload(model.ResNet34)),
		N:        8, Env: EnvHL, HL: 2, Seed: seed,
	}
	run, err := runCell(job{
		cell: cell, strategy: "ADP P=4",
		preduce: &engine.PReduceConfig{
			P: 4, Weighting: controller.Dynamic, Approx: controller.ClosestIteration,
			AdaptiveP: true,
		},
		tweak: func(cfg *cluster.Config) { cfg.TraceCap = 1 << 15 },
	})
	if err != nil {
		t.Fatal(err)
	}
	return run.Result, run.Cluster
}

// TestAdaptiveSeedReplayDeterministic is the replay pin: two same-seed
// adaptive-p runs export byte-identical summary CSV and trace JSONL. Any
// non-determinism in the policy (map iteration, wall clocks) would diverge
// the group stream and break this.
func TestAdaptiveSeedReplayDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		res, c := runAdaptiveTraced(t, 3)
		events := c.Tracer.Events()
		if len(events) == 0 {
			t.Fatal("no trace events")
		}
		var csv, jsonl bytes.Buffer
		if err := metrics.WriteSummaryCSV(&csv, res); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteJSONL(&jsonl, events, 0); err != nil {
			t.Fatal(err)
		}
		return csv.Bytes(), jsonl.Bytes()
	}
	c1, j1 := run()
	c2, j2 := run()
	if !bytes.Equal(c1, c2) {
		t.Fatalf("same-seed adaptive runs wrote different summary CSVs:\n%s\nvs\n%s", c1, c2)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("same-seed adaptive runs exported different JSONL traces")
	}
}

// TestAdaptiveDecisionsDeviate sanity-checks that the adaptive policy
// actually does something on a heterogeneous cell: at HL=2 the cadence
// dispersion crosses the shrink threshold, so at least one formed group
// must be smaller than the configured P, and the deviation counter must
// be nonzero.
func TestAdaptiveDecisionsDeviate(t *testing.T) {
	_, c := runAdaptiveTraced(t, 1)
	deviations := 0
	smaller := false
	for _, ev := range c.Tracer.Events() {
		switch ev.Kind {
		case trace.KPolicyDecision:
			deviations++
		case trace.KGroupFormed:
			if ev.B < 4 && ev.B >= 2 {
				smaller = true
			}
		}
	}
	if deviations == 0 {
		t.Fatal("adaptive-p never deviated from static on an HL=2 cell")
	}
	if !smaller {
		t.Fatal("no group smaller than the configured P was formed")
	}
	if snap := c.Ins.Snapshot(); snap.PolicyDeviations == 0 {
		t.Fatal("instruments did not count the policy deviations")
	}
}

// TestAdaptiveSpeedupClaim is adaptive-p's claim, stated as an ordering:
// on the quick sweep, at both master seeds, ADP P=4 reaches the accuracy
// threshold at least 1.10× sooner than DYN P=4 on the shared-accelerator
// HL=3 row and on the production trace. HL=0 and HL=2 are not claimed.
func TestAdaptiveSpeedupClaim(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		res, err := RobustnessAdaptive(Options{Seed: seed, Quick: true}, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Label != "HL=3" && row.Label != "production" {
				continue
			}
			if sp, ok := row.Speedup(); !ok || sp < 1.10 {
				t.Errorf("seed %d %s: adaptive speed-up %.3f (ok=%v), want >= 1.10", seed, row.Label, sp, ok)
			}
		}
	}
}
