package live

import (
	"os"
	"strconv"
	"testing"
	"time"

	"partialreduce/internal/collective"
	"partialreduce/internal/hetero"
	"partialreduce/internal/transport"
)

// chaosSeeds returns how many seeds the soak sweeps. The default keeps
// `make ci` quick; `make chaos` (or PREDUCE_CHAOS_SEEDS=n) widens the sweep.
func chaosSeeds(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("PREDUCE_CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("PREDUCE_CHAOS_SEEDS=%q is not a positive integer", s)
		}
		return n
	}
	return 2
}

// TestChaosSoak throws every fault in the repertoire at the same run:
// a fail-stop worker, a timed two-rank network partition, and a seeded
// elastic 4→6→4 staircase (two ranks bootstrap-join mid-run, then both drain
// back out), all on one seeded Faulty world. The invariants are the ones each
// fault guarantees alone — exactly the injected death is condemned, every
// membership change completes without condemning anyone,
// the surviving founders complete every iteration, and nothing hangs — and
// the soak asserts they still compose. A bootstrap transfer that straddles
// the partition times out and aborts cleanly (the joiner is un-joined via
// drain+decommission), so the drain counters hold under every interleaving.
// Each seed is fully deterministic, so a failure reproduces with
// PREDUCE_CHAOS_SEEDS and the logged seed.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a timed sweep")
	}
	seeds := chaosSeeds(t)
	for s := 0; s < seeds; s++ {
		seed := int64(70 + s)
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			cfg := liveConfig(t, seed)
			cfg.N = 6
			cfg.Initial = 4
			// Joins at 8 and 14 dispatched groups, drains at 20 and 26: the
			// staircase interleaves with the partition window and the rank-1
			// crash.
			cfg.Elastic = hetero.ScaleSchedule(4, 6, 4, 8, 6)
			cfg.CtrlTimeout = 100 * time.Millisecond
			cfg.CollectiveTimeout = 150 * time.Millisecond
			cfg.Retry = collective.RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond, Seed: seed}
			cfg.ComputeDelay = func(worker, iter int) time.Duration { return 2 * time.Millisecond }

			// Rank 1 fail-stops mid-run (its endpoint dies on a seeded send,
			// about its 20th–32nd group); it is outside the partitioned pair so
			// its peers can see the death while the links are cut. No detector
			// runs on a clock, so a cut-off worker is never mistaken for a dead
			// one.
			world, _ := faultyWorld(t, cfg.N, transport.FaultPlan{
				CrashAfterSends: map[int]int{1: 2 * (20 + 3*int(seed%5))},
				Partitions: hetero.PartitionSchedule{{
					Ranks: []int{2, 3},
					From:  0.040,
					Until: 0.300,
				}},
			})

			rep := runBounded(t, cfg, world)
			if rep.Failures != 1 {
				t.Fatalf("failures = %d, want exactly the injected fail-stop", rep.Failures)
			}
			// Both joiners are admitted, and both leave again — by the
			// scheduled drain, or by the clean un-join when their bootstrap
			// straddled a fault. Either way nobody is condemned and every
			// drain hand-off decommissions.
			if rep.Joins != 2 {
				t.Fatalf("joins = %d, want both scheduled admissions", rep.Joins)
			}
			if rep.Drains != 2 || rep.Decommissions != 2 {
				t.Fatalf("drains/decommissions = %d/%d, want 2/2",
					rep.Drains, rep.Decommissions)
			}
			for _, id := range []int{0, 2, 3} {
				if !rep.Completed[id] {
					t.Fatalf("survivor %d did not complete (iters %d/%d)",
						id, rep.WorkerIters[id], cfg.Iters)
				}
				if rep.WorkerIters[id] < cfg.Iters {
					t.Fatalf("survivor %d stopped at %d/%d", id, rep.WorkerIters[id], cfg.Iters)
				}
			}
			if rep.Completed[1] {
				t.Fatal("the fail-stopped worker reported completion")
			}
			for _, id := range []int{4, 5} {
				if rep.Completed[id] {
					t.Fatalf("drained joiner %d reported completion", id)
				}
			}
			if rep.FinalAccuracy < 0.80 {
				t.Fatalf("accuracy %.3f after crash + partition + churn", rep.FinalAccuracy)
			}
		})
	}
}
