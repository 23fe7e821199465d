package experiments

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
)

// snapshotFields renders every field of s, floats by their bits: scalars as
// values, slices as their length and an FNV-64a of their bits, so a pin names
// the field that moved.
func snapshotFields(s *metrics.InstrumentsSnapshot) map[string]string {
	f64 := func(v float64) string { return fmt.Sprintf("%#016x", math.Float64bits(v)) }
	hashF := func(vs []float64) string {
		h := fnv.New64a()
		for _, v := range vs {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
		return fmt.Sprintf("n=%d fnv=%#x", len(vs), h.Sum64())
	}
	hashI := func(vs []int64) string {
		h := fnv.New64a()
		for _, v := range vs {
			fmt.Fprintf(h, "%d,", v)
		}
		return fmt.Sprintf("n=%d fnv=%#x", len(vs), h.Sum64())
	}
	buckets, overflow := s.Staleness.Buckets()
	c := s.Comms
	return map[string]string{
		"Staleness": fmt.Sprintf("count=%d sum=%d max=%d overflow=%d buckets=%s",
			s.Staleness.Count(), s.Staleness.Sum(), s.Staleness.Max(), overflow, hashI(buckets)),
		"BarrierWait":      hashF(s.BarrierWait),
		"MaxContactAge":    fmt.Sprint(s.MaxContactAge),
		"SyncComponents":   fmt.Sprint(s.SyncComponents),
		"GroupsFormed":     fmt.Sprint(s.GroupsFormed),
		"Interventions":    fmt.Sprint(s.Interventions),
		"Deferrals":        fmt.Sprint(s.Deferrals),
		"Epoch":            fmt.Sprint(s.Epoch),
		"PolicyP":          fmt.Sprint(s.PolicyP),
		"PolicyDeviations": fmt.Sprint(s.PolicyDeviations),
		"GroupWait":        hashF(s.GroupWait),
		"Blame":            hashF(s.Blame),
		"BlameEWMA":        hashF(s.BlameEWMA),
		"CriticalN":        hashI(s.CriticalN),
		"GroupCount":       hashI(s.GroupCount),
		"Comms": fmt.Sprintf("%d %d %d %d %d %d %d %s %s", c.Ops, c.BytesSent, c.BytesRecv, c.Segments,
			c.Retries, c.Timeouts, c.Aborts, f64(c.ReduceScatterS), f64(c.AllGatherS)),
		"QueueDepthSample": f64(s.QueueDepthSample),
	}
}

// cellSnapshot runs one traced P-Reduce cell and returns its instruments'
// end-of-run snapshot.
func cellSnapshot(t *testing.T, cell Cell, strategy string) *metrics.InstrumentsSnapshot {
	t.Helper()
	var run cellRun
	err := runAll(Options{Seed: cell.Seed, Quick: true}, []job{{
		cell: cell, strategy: strategy,
		tweak: func(cfg *cluster.Config) { cfg.TraceCap = -1 },
		store: func(r cellRun) { run = r },
	}})
	if err != nil {
		t.Fatal(err)
	}
	return run.Cluster.Ins.Snapshot()
}

// TestInstrumentsSnapshotPinned pins every field of the instruments' final
// snapshot, folded from the trace, on three seeded simulator runs: the
// traced run's cell, an elastic 8→12→6 staircase and a crash cell. Only
// BarrierWait differs from the values the instruments' former direct feed
// gave: the simulator's signal-wait spans now reach it, as the live
// runtime's do, and in the simulator a member's signal wait is its group
// wait.
func TestInstrumentsSnapshotPinned(t *testing.T) {
	quick := Options{Quick: true}
	w := quick.workload(CIFAR10Workload(model.ResNet34))
	elastic := w
	elastic.Threshold, elastic.MaxUpdates = 0.999, 200
	cells := []struct {
		name string
		snap func(t *testing.T) *metrics.InstrumentsSnapshot
		want map[string]string
	}{
		{"traced-run", func(t *testing.T) *metrics.InstrumentsSnapshot {
			_, c, err := TracedRun(Options{Seed: 1, Quick: true}, -1)
			if err != nil {
				t.Fatal(err)
			}
			return c.Ins.Snapshot()
		}, map[string]string{
			"BarrierWait":      "n=8 fnv=0xdaffb432abe1a6b1", // parent: n=8 fnv=0x63a811fafcd4aa25 (all zeros)
			"Blame":            "n=8 fnv=0x5199acbad56e6c6d",
			"BlameEWMA":        "n=8 fnv=0x4b9f8566d0ad6294",
			"Comms":            "0 0 0 0 0 0 0 0x0000000000000000 0x0000000000000000",
			"CriticalN":        "n=8 fnv=0x4406cba2f89fd97e",
			"Deferrals":        "35",
			"Epoch":            "1",
			"GroupCount":       "n=8 fnv=0xd7b87493c9391ea5",
			"GroupWait":        "n=8 fnv=0xdaffb432abe1a6b1",
			"GroupsFormed":     "80",
			"Interventions":    "9",
			"MaxContactAge":    "16",
			"PolicyDeviations": "0",
			"PolicyP":          "0",
			"QueueDepthSample": "0x4010000000000000",
			"Staleness":        "count=320 sum=144 max=3 overflow=0 buckets=n=64 fnv=0x53c2c9b5771b844b",
			"SyncComponents":   "1",
		}},
		{"elastic", func(t *testing.T) *metrics.InstrumentsSnapshot {
			return cellSnapshot(t, Cell{Workload: elastic, N: 12, Initial: 8, Env: EnvHL, HL: 3, Seed: 1,
				Elastic: hetero.ScaleSchedule(8, 12, 6, 25, 5)}, "DYN P=4")
		}, map[string]string{
			"BarrierWait":      "n=12 fnv=0x7bf6b9772093cb1", // parent: n=12 fnv=0x614cf245a0aa95a5 (all zeros)
			"Blame":            "n=12 fnv=0xcc4688f158a24900",
			"BlameEWMA":        "n=12 fnv=0xc1fd4d0726e4b5c2",
			"Comms":            "0 0 0 0 0 0 0 0x0000000000000000 0x0000000000000000",
			"CriticalN":        "n=12 fnv=0xf26eb5ba65d86403",
			"Deferrals":        "19",
			"Epoch":            "17",
			"GroupCount":       "n=12 fnv=0x2de697a57c5911ff",
			"GroupWait":        "n=12 fnv=0x7bf6b9772093cb1",
			"GroupsFormed":     "200",
			"Interventions":    "4",
			"MaxContactAge":    "8",
			"PolicyDeviations": "0",
			"PolicyP":          "0",
			"QueueDepthSample": "0x4010000000000000",
			"Staleness":        "count=800 sum=373 max=2 overflow=0 buckets=n=64 fnv=0xbb5207ef69998006",
			"SyncComponents":   "7",
		}},
		{"crash", func(t *testing.T) *metrics.InstrumentsSnapshot {
			return cellSnapshot(t, Cell{Workload: w, N: 8, Env: EnvHL, HL: 3, Seed: 1,
				Crashes: hetero.RandomCrashes(8, 0.5, w.Profile.BatchCompute*40, 1)}, "DYN P=4")
		}, map[string]string{
			"BarrierWait":      "n=8 fnv=0xab666449dada65be", // parent: n=8 fnv=0x63a811fafcd4aa25 (all zeros)
			"Blame":            "n=8 fnv=0x6823237940d21503",
			"BlameEWMA":        "n=8 fnv=0x6e95fc8007d8a81b",
			"Comms":            "0 0 0 0 0 0 0 0x0000000000000000 0x0000000000000000",
			"CriticalN":        "n=8 fnv=0xfe59b9a34546e16b",
			"Deferrals":        "0",
			"Epoch":            "5",
			"GroupCount":       "n=8 fnv=0x1c664371b84abccc",
			"GroupWait":        "n=8 fnv=0xab666449dada65be",
			"GroupsFormed":     "60",
			"Interventions":    "0",
			"MaxContactAge":    "0",
			"PolicyDeviations": "0",
			"PolicyP":          "0",
			"QueueDepthSample": "0x4010000000000000",
			"Staleness":        "count=240 sum=79 max=3 overflow=0 buckets=n=64 fnv=0x2a003761b7d8ce3",
			"SyncComponents":   "5",
		}},
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			snap := tc.snap(t)
			got := snapshotFields(snap)
			if n := reflect.TypeOf(*snap).NumField(); n != len(got) {
				t.Fatalf("InstrumentsSnapshot has %d fields, the pin renders %d", n, len(got))
			}
			for _, k := range slices.Sorted(maps.Keys(got)) {
				if got[k] != tc.want[k] {
					t.Errorf("%s = %s, want %s", k, got[k], tc.want[k])
				}
			}
			if got["BarrierWait"] != got["GroupWait"] {
				t.Errorf("simulated barrier wait %s differs from group wait %s", got["BarrierWait"], got["GroupWait"])
			}
		})
	}
}
