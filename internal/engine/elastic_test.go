package engine_test

import (
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/engine"
	"partialreduce/internal/hetero"
	"partialreduce/internal/testutil"
)

// TestElasticPReduceScalesThroughSchedule runs the canonical staircase
// (5→8→4 here, the test-sized cousin of the paper-style 8→12→6 sweep):
// three parked ranks bootstrap in mid-run, then four members drain back
// out. Every membership change must complete, none may be recorded as a
// failure, and training keeps making progress throughout.
func TestElasticPReduceScalesThroughSchedule(t *testing.T) {
	cfg := testutil.Config(t, 11)
	cfg.Initial = 5
	cfg.Elastic = hetero.ScaleSchedule(5, 8, 4, 30, 15)
	cfg.Threshold = 0.999 // run to the update cap so every event fires
	cfg.MaxUpdates = 400

	c, err := cluster.New(cfg, "elastic")
	if err != nil {
		t.Fatal(err)
	}
	info, err := engine.NewPReduce(engine.PReduceConfig{P: 3}).RunDetailed(c)
	if err != nil {
		t.Fatal(err)
	}
	st := info.Stats
	if st.Joins != 3 || st.Drains != 4 || st.Decommissions != 4 {
		t.Fatalf("membership changes incomplete: joins=%d drains=%d decommissions=%d",
			st.Joins, st.Drains, st.Decommissions)
	}
	if st.Failures != 0 {
		t.Fatalf("graceful churn condemned %d workers", st.Failures)
	}
	if st.StaleEpochs != 0 {
		t.Fatalf("co-located sim workers signaled stale epochs %d times", st.StaleEpochs)
	}
	// 8 ranks all joined at some point; 4 drained back out (ranks 7..4).
	if got := c.AliveCount(); got != 4 {
		t.Fatalf("want 4 ranks training at the end, got %d", got)
	}
	if res := c.Track.Result(); res.Updates < 120 {
		t.Fatalf("training stalled across the churn: only %d updates", res.Updates)
	}
}

// TestElasticConfigValidation pins the cluster-level schedule checks.
func TestElasticConfigValidation(t *testing.T) {
	cfg := testutil.Config(t, 11)
	cfg.Initial = 1 // below the two-rank floor
	if _, err := cluster.New(cfg, "bad"); err == nil {
		t.Fatal("Initial=1 accepted")
	}
	cfg = testutil.Config(t, 11)
	cfg.Elastic = hetero.ElasticSchedule{{Worker: 3, AfterUpdates: 5, Kind: hetero.ElasticJoin}}
	if _, err := cluster.New(cfg, "bad"); err == nil {
		t.Fatal("join of a founding member accepted")
	}
}
