package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"partialreduce/internal/cluster"
	"partialreduce/internal/hetero"
	"partialreduce/internal/metrics"
	"partialreduce/internal/netmodel"
	"partialreduce/internal/testutil"
)

// TestStrategyCommsPinned pins the modeled traffic (Result.Comms, field by
// field, floats by their bits) of one small seeded cell per strategy name
// StrategyFor resolves, plus a P-Reduce cell whose partition outlasts its
// retry budget (retries, timeouts and aborts) and one with an elastic
// staircase (the bootstrap exchange). A driver that prices a collective
// without charging it, or charges one it never ran, moves a pin here.
func TestStrategyCommsPinned(t *testing.T) {
	f := math.Float64frombits
	cells := []struct {
		name  string // a strategy name, +label for a tweaked cell
		tweak func(*cluster.Config)
		want  metrics.CommStats
	}{
		{"AR", nil, metrics.CommStats{Ops: 120, BytesSent: 6720000000, BytesRecv: 6720000000, ReduceScatterS: f(0x406122d0e5604183), AllGatherS: f(0x406122d0e5604183)}},
		{"ER", nil, metrics.CommStats{Ops: 120, BytesSent: 6720000000, BytesRecv: 6720000000, ReduceScatterS: f(0x406122d0e5604183), AllGatherS: f(0x406122d0e5604183)}},
		{"AD", nil, metrics.CommStats{Ops: 122, BytesSent: 488000000, BytesRecv: 488000000}},
		{"D-PSGD", nil, metrics.CommStats{Ops: 120, BytesSent: 3840000000, BytesRecv: 3840000000}},
		{"PS BSP", nil, metrics.CommStats{Ops: 120, BytesSent: 3840000000, BytesRecv: 3840000000}},
		{"PS ASP", nil, metrics.CommStats{Ops: 120, BytesSent: 480000000, BytesRecv: 480000000}},
		{"PS HETE", nil, metrics.CommStats{Ops: 120, BytesSent: 480000000, BytesRecv: 480000000}},
		{"PS BK-3", nil, metrics.CommStats{Ops: 120, BytesSent: 3840000000, BytesRecv: 3840000000}},
		{"CON P=3", nil, metrics.CommStats{Ops: 120, BytesSent: 1920000000, BytesRecv: 1920000000, ReduceScatterS: f(0x40282cccccccccd7), AllGatherS: f(0x40282cccccccccd7)}},
		{"DYN P=3", nil, metrics.CommStats{Ops: 120, BytesSent: 1920000000, BytesRecv: 1920000000, ReduceScatterS: f(0x40282cccccccccd7), AllGatherS: f(0x40282cccccccccd7)}},
		{"ADP P=4", nil, metrics.CommStats{Ops: 121, BytesSent: 1800000000, BytesRecv: 1800000000, ReduceScatterS: f(0x402c7e76c8b4395f), AllGatherS: f(0x402c7e76c8b4395f)}},
		{"CON P=3+partition", func(cfg *cluster.Config) {
			cfg.Partitions = hetero.PartitionSchedule{{Ranks: []int{1, 2}, From: 0.5, Until: 2}}
			cfg.Retry = cluster.RetryModel{MaxAttempts: 2, Timeout: 0.2, BaseDelay: 0.05}
		}, metrics.CommStats{Ops: 132, BytesSent: 2112000000, BytesRecv: 2112000000, Retries: 6, Timeouts: 11, Aborts: 5, ReduceScatterS: f(0x402a7a5e353f7cfd), AllGatherS: f(0x402a7a5e353f7cfd)}},
		{"DYN P=3+elastic", func(cfg *cluster.Config) {
			cfg.Initial = 6
			cfg.Elastic = hetero.ScaleSchedule(6, 8, 6, 20, 10)
		}, metrics.CommStats{Ops: 122, BytesSent: 1928000000, BytesRecv: 1928000000, ReduceScatterS: f(0x4025289a0275254c), AllGatherS: f(0x4025289a0275254c)}},
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testutil.Config(t, 1)
			cfg.Hetero = hetero.NewGPUSharing(cfg.N, 3, testutil.Profile.BatchCompute, 0.05, 1)
			// Two zones and uneven links: a ring's price depends on who is
			// in it, so the phase seconds pin group membership too.
			cfg.Topology = netmodel.GeoDistributed(cfg.N, 20e-3, 1.25e9)
			cfg.Topology.LinkSpeed = []float64{1, 1, 0.5, 1, 1, 0.25, 1, 1}
			cfg.Threshold, cfg.EvalEvery, cfg.MaxUpdates = 1, 1000, 120
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			strategy, _, _ := strings.Cut(tc.name, "+")
			s, err := StrategyFor(strategy)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cluster.New(cfg, s.Name())
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			got, want := reflect.ValueOf(res.Comms), reflect.ValueOf(tc.want)
			for i := range got.NumField() {
				g, w := got.Field(i), want.Field(i)
				if g.CanFloat() {
					if math.Float64bits(g.Float()) != math.Float64bits(w.Float()) {
						t.Errorf("%s = f(%#016x), want f(%#016x)", got.Type().Field(i).Name,
							math.Float64bits(g.Float()), math.Float64bits(w.Float()))
					}
				} else if g.Int() != w.Int() {
					t.Errorf("%s = %d, want %d", got.Type().Field(i).Name, g.Int(), w.Int())
				}
			}
		})
	}
}
