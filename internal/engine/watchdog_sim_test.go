package engine_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/data"
	"partialreduce/internal/engine"
	"partialreduce/internal/health"
	"partialreduce/internal/hetero"
	"partialreduce/internal/model"
	"partialreduce/internal/netmodel"
	"partialreduce/internal/optim"
)

// watchdogSimRun executes one seeded P-Reduce simulation with a 4x
// straggler (rank 3) and a timed data-plane partition around rank 1
// (which the retry model turns into a burst of timeouts and retries),
// the watchdog armed for blame-spike and retry-storm, and the flight
// recorder writing bundles to dir. Everything runs on the virtual clock,
// so a same-seed replay is byte-reproducible end to end.
func watchdogSimRun(t *testing.T, seed int64, dir string) *health.Recorder {
	t.Helper()
	const n = 4
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: 4, Dim: 12, Examples: 800, Separation: 3.2, Noise: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.8)
	profile := model.Profile{Name: "wd", WireParams: 1000, BatchCompute: 0.1, BytesPerParam: 4}
	cfg := cluster.Config{
		N:    n,
		Spec: model.Spec{Inputs: 12, Hidden: []int{12}, Classes: 4},
		Seed: seed, Train: train, Test: test,
		BatchSize: 16, Optimizer: optim.Config{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4},
		Profile: profile,
		Hetero:  &hetero.Fixed{Base: profile.BatchCompute, Multipliers: []float64{1, 1, 1, 4}},
		Net:     netmodel.Default(),
		Partitions: hetero.PartitionSchedule{{
			Ranks: []int{1}, From: 3, Until: 6,
		}},
		Retry: cluster.RetryModel{
			MaxAttempts: 3, Timeout: 0.2, BaseDelay: 0.05, MaxDelay: 0.1,
		},
		TraceCap:  4096,
		Threshold: 0.999, EvalEvery: 1000, MaxUpdates: 120,
	}
	c, err := cluster.New(cfg, "watchdog-sim")
	if err != nil {
		t.Fatal(err)
	}
	c.Health = health.New(health.SLO{
		BlameRecent: 0.05, // straggler rule: rank 3 settles near 0.3s recent blame
		RetryStorm:  2,    // >= 2 timeouts+retries per 0.5s evaluation window
	})
	c.Recorder = health.NewRecorder(dir, c.Tracer, c.Ins, []byte(`{"test":"watchdog-sim"}`))
	c.HealthEvery = 0.5

	if _, err := engine.NewPReduce(engine.PReduceConfig{P: 2}).Run(c); err != nil {
		t.Fatal(err)
	}
	return c.Recorder
}

// TestWatchdogSimFiresOncePerAnomaly: the straggler fires blame-spike
// exactly once and the partition's retry burst fires retry-storm exactly
// once — hysteresis keeps a persisting anomaly from re-capturing — and
// every bundle passes full validation.
func TestWatchdogSimFiresOncePerAnomaly(t *testing.T) {
	dir := t.TempDir()
	rec := watchdogSimRun(t, 11, dir)

	written := rec.Written()
	if len(written) != 2 {
		t.Fatalf("recorder wrote %d bundles %v, want exactly 2", len(written), written)
	}
	byRule := map[string]int{}
	for _, path := range written {
		man, _, err := health.ReadBundle(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(man.Rules) != 1 {
			t.Fatalf("%s: manifest rules %v, want exactly one", path, man.Rules)
		}
		byRule[man.Rules[0]]++
		if man.At <= 0 {
			t.Fatalf("%s: capture time %v not positive", path, man.At)
		}
	}
	for _, rule := range []string{"blame-spike", "retry-storm"} {
		if byRule[rule] != 1 {
			t.Fatalf("rule %s captured %d bundles, want 1 (all: %v)", rule, byRule[rule], byRule)
		}
	}
}

// TestWatchdogSimDeterministic: a same-seed replay fires the same rules
// at the same virtual times and writes byte-identical bundles — the
// flight recorder inherits the simulator's reproducibility, so a
// postmortem from a seeded run can be regenerated exactly.
func TestWatchdogSimDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	watchdogSimRun(t, 11, dirA)
	watchdogSimRun(t, 11, dirB)

	names := func(dir string) []string {
		matches, err := filepath.Glob(filepath.Join(dir, "postmortem-*"))
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range matches {
			matches[i] = filepath.Base(m)
		}
		return matches
	}
	a, b := names(dirA), names(dirB)
	if len(a) == 0 {
		t.Fatal("no bundles written")
	}
	if len(a) != len(b) {
		t.Fatalf("replay wrote %d bundles, first run wrote %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bundle name diverged: %s vs %s", a[i], b[i])
		}
		files, err := os.ReadDir(filepath.Join(dirA, a[i]))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			fa, errA := os.ReadFile(filepath.Join(dirA, a[i], f.Name()))
			fb, errB := os.ReadFile(filepath.Join(dirB, b[i], f.Name()))
			if errA != nil || errB != nil || !bytes.Equal(fa, fb) {
				t.Fatalf("bundle %s file %s differs between same-seed replays (%v, %v)", a[i], f.Name(), errA, errB)
			}
		}
	}
}
