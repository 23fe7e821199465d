// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding experiment once per iteration
// in Quick mode and reports the headline quantities as custom metrics, so
// `go test -bench=. -benchmem` reproduces the full evaluation. The cmd
// preduce-bench tool runs the same experiments at full scale and prints the
// paper-layout tables; EXPERIMENTS.md records paper-vs-measured numbers.
package preduce

import (
	"io"
	"strings"
	"testing"

	"partialreduce/internal/experiments"
)

func benchOpts(i int) experiments.Options {
	return experiments.Options{Seed: int64(1 + i), Quick: true}
}

// BenchmarkTable1EndToEnd regenerates Table 1: the full CIFAR-10 grid
// (3 models × HL levels × 11 strategies). Reported metrics are the ResNet-34
// HL=3 headline: P-Reduce's total-runtime speedup over All-Reduce and the
// two per-update times.
func BenchmarkTable1EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		blk := res.Blocks[0]
		ar := blk.Cells[3]["AR"]
		dyn := blk.Cells[3]["DYN P=3"]
		if ar != nil && dyn != nil && dyn.RunTime > 0 {
			b.ReportMetric(ar.RunTime/dyn.RunTime, "speedup-vs-AR")
			b.ReportMetric(ar.PerUpdate(), "AR-per-update-s")
			b.ReportMetric(dyn.PerUpdate(), "DYN-per-update-s")
		}
		res.Format(io.Discard)
	}
}

// BenchmarkFig4Spectral regenerates Figure 4: analytic and simulated
// spectral bounds for the homogeneous (ρ=0.5) and heterogeneous (ρ=0.625)
// 3-worker scenarios.
func BenchmarkFig4Spectral(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].EmpiricalRho, "rho-homogeneous")
		b.ReportMetric(res.Rows[1].EmpiricalRho, "rho-heterogeneous")
	}
}

// BenchmarkFig7aConvergence regenerates Figure 7(a): VGG-19/CIFAR-10
// convergence curves at HL=3 for six methods.
func BenchmarkFig7aConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, err := experiments.Fig7a(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if r := cs.Final["DYN P=3"]; r != nil {
			b.ReportMetric(r.RunTime, "DYN-runtime-s")
			b.ReportMetric(boolMetric(r.Converged), "DYN-converged")
		}
		cs.Format(io.Discard)
	}
}

// BenchmarkFig7bConvergence regenerates Figure 7(b): ResNet-34/CIFAR-100 on
// the production environment, N=16.
func BenchmarkFig7bConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, err := experiments.Fig7b(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		ar, dyn := cs.Final["AR"], cs.Final["DYN P=4"]
		if ar != nil && dyn != nil && dyn.RunTime > 0 {
			b.ReportMetric(ar.RunTime/dyn.RunTime, "speedup-vs-AR")
		}
		cs.Format(io.Discard)
	}
}

// BenchmarkFig8PSweep regenerates Figure 8: per-update time, #updates, and
// total run time across P ∈ [2,8] for constant P-Reduce on VGG-19.
func BenchmarkFig8PSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.PerUpdate/first.PerUpdate, "per-update-growth-P2-P8")
		b.ReportMetric(float64(first.Updates)/float64(last.Updates), "updates-shrink-P2-P8")
		res.Format(io.Discard)
	}
}

// BenchmarkFig9Production regenerates Figure 9: the production-cluster
// comparison whose paper headline is ≈16.6× per-update and ≈2× total
// speedup of partial reduce over All-Reduce.
func BenchmarkFig9Production(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.AR != nil && res.DYN != nil && res.DYN.PerUpdate() > 0 {
			b.ReportMetric(res.AR.PerUpdate()/res.DYN.PerUpdate(), "per-update-speedup")
			b.ReportMetric(res.AR.RunTime/res.DYN.RunTime, "total-speedup")
		}
		res.Format(io.Discard)
	}
}

// BenchmarkFig10ImageNet regenerates Figure 10: ImageNet convergence curves
// for ResNet-18 and VGG-16 at N=32 on the production environment.
func BenchmarkFig10ImageNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sets, err := experiments.Fig10(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, cs := range sets {
			if ar, con := cs.Final["AR"], cs.Final["CON P=4"]; ar != nil && con != nil && con.RunTime > 0 {
				model := strings.Fields(cs.Title)[2] // "Fig 10: <model> on ..."
				b.ReportMetric(ar.RunTime/con.RunTime, "speedup-"+model)
			}
			cs.Format(io.Discard)
		}
	}
}

// BenchmarkFig11Scalability regenerates Figure 11: run-time speedup over one
// worker at N ∈ {1,4,8,16,32} for AR, PS BK(N/4), and P-Reduce (P=4).
func BenchmarkFig11Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig11(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.Speedups["CON P=4"], "preduce-speedup-N32-"+res.Model)
			b.ReportMetric(last.Speedups["AR"], "AR-speedup-N32-"+res.Model)
			res.Format(io.Discard)
		}
	}
}

// BenchmarkAblationWeights compares constant weights against both dynamic
// approximation rules (DESIGN.md's weighting ablation).
func BenchmarkAblationWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationWeights(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Constant.Updates), "constant-updates")
		b.ReportMetric(float64(res.DynamicClosest.Updates), "dyn-closest-updates")
		b.ReportMetric(float64(res.DynamicInitial.Updates), "dyn-initial-updates")
	}
}

// BenchmarkAblationGroupFilter measures group-frozen avoidance on the
// adversarial two-clique arrival pattern (DESIGN.md's filter ablation).
func BenchmarkAblationGroupFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationGroupFilter(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithFilter, "worst-replica-with-filter")
		b.ReportMetric(res.WithoutFilter, "worst-replica-without")
		b.ReportMetric(float64(res.Interventions), "interventions")
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkGeoDistributed measures the geo-distributed extension (paper
// Case 1): two data centers, slow inter-zone links, zone-affinity grouping.
func BenchmarkGeoDistributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.GeoStudy(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.AR != nil && res.Affinity != nil && res.Affinity.RunTime > 0 {
			b.ReportMetric(res.AR.RunTime/res.Affinity.RunTime, "affinity-speedup-vs-AR")
			b.ReportMetric(res.CON.RunTime/res.Affinity.RunTime, "affinity-speedup-vs-CON")
		}
	}
}
