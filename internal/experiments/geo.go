package experiments

import (
	"fmt"
	"io"

	"partialreduce/internal/cluster"
	"partialreduce/internal/engine"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/netmodel"
)

// GeoResult compares strategies on a geo-distributed two-data-center
// cluster (the paper's communication-heterogeneity Case 1): inter-zone
// links are an order of magnitude slower than intra-zone ones.
type GeoResult struct {
	AR       *metrics.Result // All-Reduce: every ring spans both zones
	CON      *metrics.Result // plain P-Reduce: most random groups span zones
	Affinity *metrics.Result // zone-affinity P-Reduce: intra-zone groups,
	// with frozen-avoidance bridges carrying updates across
	Interventions int // cross-zone bridges forced by the group filter
}

// GeoStudy runs the geo-distributed comparison: VGG-19-class workload
// (communication-bound), 16 workers split across two zones, 10 GbE between
// zones versus the intra-zone fabric.
func GeoStudy(opts Options) (*GeoResult, error) {
	w := opts.workload(CIFAR10Workload(model.VGG19))
	cell := Cell{Workload: w, N: 16, Env: EnvHL, HL: 1, Seed: opts.Seed}
	topo := netmodel.GeoDistributed(16, 20e-3, 1.25e9)
	twoZones := func(cfg *cluster.Config) { cfg.Topology = topo }

	out := &GeoResult{}
	jobs := []job{
		{cell: cell, strategy: "AR", tweak: twoZones, store: func(r cellRun) { out.AR = r.Result }},
		{cell: cell, strategy: "CON P=4", tweak: twoZones, store: func(r cellRun) { out.CON = r.Result }},
		{cell: cell, strategy: "CON P=4 +zone", tweak: twoZones,
			preduce: &engine.PReduceConfig{P: 4, ZoneAffinity: true},
			store: func(r cellRun) {
				out.Affinity = r.Result
				out.Interventions = r.Stats.Interventions
			}},
	}
	if err := runAll(opts, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the geo comparison.
func (g *GeoResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Two zones (8+8 workers), 20 ms / 1.25 GB/s between zones:\n")
	for _, r := range []*metrics.Result{g.AR, g.CON, g.Affinity} {
		fmt.Fprintf(w, "  %s\n", r)
	}
	if g.CON != nil && g.Affinity != nil && g.Affinity.RunTime > 0 {
		fmt.Fprintf(w, "zone affinity vs plain P-Reduce: %.2fx faster (%d forced cross-zone bridges)\n",
			g.CON.RunTime/g.Affinity.RunTime, g.Interventions)
	}
	if g.AR != nil && g.Affinity != nil && g.Affinity.RunTime > 0 {
		fmt.Fprintf(w, "zone affinity vs All-Reduce:    %.2fx faster\n", g.AR.RunTime/g.Affinity.RunTime)
	}
}
