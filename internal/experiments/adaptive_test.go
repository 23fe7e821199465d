package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/policy"
	"partialreduce/internal/trace"
)

// runAdaptiveTraced runs one quick adaptive-p cell with tracing enabled.
func runAdaptiveTraced(t *testing.T, seed int64) (*metrics.Result, *cluster.Cluster) {
	t.Helper()
	opts := Options{Seed: seed, Quick: true}
	cell := Cell{
		Workload: opts.workload(CIFAR10Workload(model.ResNet34)),
		N:        8, Env: EnvHL, HL: 2, Seed: seed,
	}
	run, err := runCell(opts, job{
		cell: cell, strategy: "ADP P=4",
		preduce: &engine.PReduceConfig{
			P: 4, Weighting: controller.Dynamic, Approx: controller.ClosestIteration,
			Policy: policy.Spec{Name: policy.NameAdaptiveP, PMin: 2, PMax: 4},
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

// TestStaticPolicyMatchesBaselineResult is the end-to-end half of the
// metamorphic golden test: retrofitting the static policy via
// Options.Policy (the -policy flag path) onto a DYN run reproduces the
// policy-free result exactly. It then pins both sides of the retrofit rule
// on whole experiments: Fig8 names its strategies, so static leaves it
// unchanged while adaptive-p does not; AblationWeights pins explicit
// controller configs, so even adaptive-p leaves it unchanged.
func TestStaticPolicyMatchesBaselineResult(t *testing.T) {
	cell := Cell{
		Workload: Options{Quick: true}.workload(CIFAR10Workload(model.ResNet34)),
		N:        8, Env: EnvHL, HL: 2, Seed: 2,
	}
	static := Options{Seed: 2, Quick: true, Policy: policy.Spec{Name: policy.NameStatic}}
	adaptive := Options{Seed: 2, Quick: true, Policy: policy.Spec{Name: policy.NameAdaptiveP, PMin: 2}}
	base, err := runCell(Options{Seed: 2, Quick: true}, job{cell: cell, strategy: "DYN P=4"})
	if err != nil {
		t.Fatal(err)
	}
	with, err := runCell(static, job{cell: cell, strategy: "DYN P=4"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Result, with.Result) {
		t.Fatalf("static policy changed the run result:\n  baseline: %+v\n  static:   %+v", base.Result, with.Result)
	}

	fig8 := func(o Options) *Fig8Result {
		t.Helper()
		res, err := Fig8(o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	named := fig8(Options{Seed: 2, Quick: true})
	if got := fig8(static); !reflect.DeepEqual(named, got) {
		t.Fatalf("static policy changed a named-strategy experiment:\n  baseline: %+v\n  static:   %+v", named, got)
	}
	if got := fig8(adaptive); reflect.DeepEqual(named, got) {
		t.Fatal("adaptive-p left a named-strategy experiment unchanged: the retrofit did not reach it")
	}

	weights := func(o Options) *AblationWeightsResult {
		t.Helper()
		res, err := AblationWeights(o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if pinned, got := weights(Options{Seed: 2, Quick: true}), weights(adaptive); !reflect.DeepEqual(pinned, got) {
		t.Fatalf("-policy leaked into an explicit ablation config:\n  baseline: %+v\n  adaptive: %+v", pinned, got)
	}
}
