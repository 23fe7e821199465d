package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
)

var quick = Options{Seed: 1, Quick: true}

func TestStrategyFor(t *testing.T) {
	known := []string{
		"AR", "ER", "AD", "PS BSP", "PS ASP", "PS HETE", "PS BK-3",
		"CON P=3", "DYN P=5",
	}
	for _, name := range known {
		s, err := StrategyFor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(s.Name(), strings.Split(name, "-")[0][:2]) {
			t.Fatalf("%s resolved to %s", name, s.Name())
		}
	}
	for _, bad := range []string{"", "XX", "CON", "CON P=x", "PS"} {
		if _, err := StrategyFor(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestWorkloadPresets(t *testing.T) {
	for _, w := range []Workload{
		CIFAR10Workload(model.ResNet34),
		CIFAR100Workload(model.ResNet34),
		ImageNetWorkload(model.ResNet18),
	} {
		cell := Cell{Workload: w, N: 8, Env: EnvHL, HL: 1, Seed: 1}
		cfg, err := cell.Build()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	q := CIFAR10Workload(model.VGG19).Quick()
	if q.Threshold >= 0.90 || q.MaxUpdates >= 60_000 {
		t.Fatalf("Quick did not shrink: %+v", q)
	}
}

func TestCellEnvironments(t *testing.T) {
	w := CIFAR10Workload(model.ResNet34)
	prod := Cell{Workload: w, N: 4, Env: EnvProduction, Seed: 1}
	cfg, err := prod.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hetero.Name() != "production-trace" {
		t.Fatalf("production env built %q", cfg.Hetero.Name())
	}
	if prod.envString() != "production" {
		t.Fatalf("envString: %q", prod.envString())
	}
	hl := Cell{Workload: w, N: 4, Env: EnvHL, HL: 2, Seed: 1}
	cfg, err = hl.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hetero.Name() != "gpu-sharing(HL=2)" {
		t.Fatalf("HL env built %q", cfg.Hetero.Name())
	}
}

// Fig. 4: analytic rho values are exact; the simulated run must land close.
func TestFig4(t *testing.T) {
	res, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if math.Abs(res.Rows[0].AnalyticRho-0.5) > 1e-9 {
		t.Fatalf("homogeneous analytic rho %v", res.Rows[0].AnalyticRho)
	}
	if math.Abs(res.Rows[1].AnalyticRho-0.625) > 1e-9 {
		t.Fatalf("heterogeneous analytic rho %v", res.Rows[1].AnalyticRho)
	}
	if math.Abs(res.Rows[0].EmpiricalRho-0.5) > 0.08 {
		t.Fatalf("homogeneous empirical rho %v", res.Rows[0].EmpiricalRho)
	}
	if res.Rows[1].EmpiricalRho <= res.Rows[0].EmpiricalRho {
		t.Fatalf("heterogeneity did not raise empirical rho: %+v", res.Rows)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "rho") {
		t.Fatal("Format produced no output")
	}
}

// Fig. 8: per-update time grows with P and #updates shrinks.
func TestFig8Shapes(t *testing.T) {
	res, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].PerUpdate <= res.Rows[i-1].PerUpdate {
			t.Fatalf("per-update not increasing at P=%d: %+v", res.Rows[i].P, res.Rows)
		}
	}
	if res.Rows[len(res.Rows)-1].Updates > res.Rows[0].Updates {
		t.Fatalf("updates did not shrink from P=2 to P=8: %+v", res.Rows)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "per-update") {
		t.Fatal("Format produced no output")
	}
}

// Fig. 7(a): curves exist for every strategy, accuracies are monotone-ish
// (final >= first), and P-Reduce converges.
func TestFig7a(t *testing.T) {
	cs, err := Fig7a(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cs.Order {
		pts := cs.Final[name].Curve
		if len(pts) == 0 {
			t.Fatalf("%s: empty curve", name)
		}
		if last := pts[len(pts)-1]; last.Accuracy < pts[0].Accuracy {
			t.Fatalf("%s: accuracy decreased overall (%v -> %v)", name, pts[0].Accuracy, last.Accuracy)
		}
	}
	for _, name := range []string{"CON P=3", "DYN P=3"} {
		if !cs.Final[name].Converged {
			t.Fatalf("%s did not converge: %+v", name, cs.Final[name])
		}
	}
	var buf bytes.Buffer
	cs.Format(&buf)
	if !strings.Contains(buf.String(), "Fig 7(a)") {
		t.Fatal("Format produced no output")
	}
}

// Fig. 9: partial reduce beats All-Reduce on the production trace, both per
// update and in total run time — the paper's headline production result.
func TestFig9Speedups(t *testing.T) {
	res, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CON.Converged || !res.DYN.Converged || !res.AR.Converged {
		t.Fatalf("not converged: %+v %+v %+v", res.AR, res.CON, res.DYN)
	}
	if res.AR.PerUpdate() <= 3*res.DYN.PerUpdate() {
		t.Fatalf("per-update speedup too small: AR %v vs DYN %v", res.AR.PerUpdate(), res.DYN.PerUpdate())
	}
	if res.AR.RunTime <= 1.2*res.DYN.RunTime {
		t.Fatalf("total speedup too small: AR %v vs DYN %v", res.AR.RunTime, res.DYN.RunTime)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("Format produced no output")
	}
}

// Table 1 (one block in quick mode, exercised fully by the bench harness):
// shapes on the ResNet-34 block.
func TestTable1ResNetBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 block is expensive")
	}
	res, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 3 {
		t.Fatalf("blocks: %d", len(res.Blocks))
	}
	blk := res.Blocks[0]
	for _, hl := range blk.HLs {
		ar := blk.Cells[hl]["AR"]
		con := blk.Cells[hl]["CON P=3"]
		if ar == nil || con == nil || !ar.Converged || !con.Converged {
			t.Fatalf("HL=%d: AR/CON missing or unconverged: %+v %+v", hl, ar, con)
		}
		// Hardware efficiency: P-Reduce updates are much cheaper than AR's.
		if con.PerUpdate() >= ar.PerUpdate() {
			t.Fatalf("HL=%d: CON per-update %v !< AR %v", hl, con.PerUpdate(), ar.PerUpdate())
		}
		// Statistical efficiency: partial synchronization needs more updates.
		if con.Updates <= ar.Updates {
			t.Fatalf("HL=%d: CON updates %d !> AR %d", hl, con.Updates, ar.Updates)
		}
	}
	// Heterogeneity widens AR's per-update time but barely moves P-Reduce's.
	arInflation := blk.Cells[3]["AR"].PerUpdate() / blk.Cells[1]["AR"].PerUpdate()
	conInflation := blk.Cells[3]["CON P=3"].PerUpdate() / blk.Cells[1]["CON P=3"].PerUpdate()
	if arInflation <= conInflation {
		t.Fatalf("heterogeneity tolerance inverted: AR x%v vs CON x%v", arInflation, conInflation)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "resnet34") {
		t.Fatal("Format produced no output")
	}
	if name, best := res.Best("resnet34", 3); name == "" || best == nil {
		t.Fatal("Best found nothing")
	}
}

func TestAblationWeights(t *testing.T) {
	res, err := AblationWeights(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Constant.Converged || !res.DynamicClosest.Converged {
		t.Fatalf("ablation runs unconverged: %+v %+v", res.Constant, res.DynamicClosest)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "dyn/closest") {
		t.Fatal("Format produced no output")
	}
}

// AblationOverlap is no Registry entry, so no sweep CSV pins it: its two
// results are pinned here to the bit.
func TestAblationOverlapGolden(t *testing.T) {
	blocking, overlapped, err := AblationOverlap(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		res          *metrics.Result
		runTime, acc uint64
		updates      int
	}{
		{"blocking", blocking, 0x4061e3f303b64c8b, 0x3feda740da740da7, 1200},
		{"overlapped", overlapped, 0x405254bc18223c4f, 0x3fed851eb851eb85, 1200},
	} {
		r := tc.res
		if math.Float64bits(r.RunTime) != tc.runTime || r.Updates != tc.updates || math.Float64bits(r.FinalAccuracy) != tc.acc {
			t.Errorf("%s: RunTime %#x Updates %d FinalAccuracy %#x, want %#x %d %#x", tc.name,
				math.Float64bits(r.RunTime), r.Updates, math.Float64bits(r.FinalAccuracy), tc.runTime, tc.updates, tc.acc)
		}
	}
}

// The group filter must keep the worst replica close to the best when FIFO
// grouping would otherwise freeze two sub-clusters.
func TestAblationGroupFilter(t *testing.T) {
	res, err := AblationGroupFilter(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interventions == 0 {
		t.Fatal("filter never intervened in the adversarial setting")
	}
	if res.BridgingWith == 0 {
		t.Fatal("no bridging groups with the filter enabled")
	}
	if res.BridgingWithout != 0 {
		t.Fatalf("bridging groups appeared with the filter disabled: %d", res.BridgingWithout)
	}
	if res.WithFilter <= res.WithoutFilter {
		t.Fatalf("filter did not improve the worst replica: with=%v without=%v",
			res.WithFilter, res.WithoutFilter)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "worst replica") {
		t.Fatal("Format produced no output")
	}
}

// Geo study: zone-affinity P-Reduce beats both plain P-Reduce and AR when
// inter-zone links are slow; bridges still fire so zones stay coupled.
func TestGeoStudy(t *testing.T) {
	res, err := GeoStudy(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Affinity.Converged {
		t.Fatalf("affinity run did not converge: %+v", res.Affinity)
	}
	if res.Affinity.RunTime >= res.CON.RunTime {
		t.Fatalf("zone affinity (%.0fs) not faster than plain P-Reduce (%.0fs)",
			res.Affinity.RunTime, res.CON.RunTime)
	}
	if res.Affinity.RunTime >= res.AR.RunTime {
		t.Fatalf("zone affinity (%.0fs) not faster than AR (%.0fs)",
			res.Affinity.RunTime, res.AR.RunTime)
	}
	if res.Interventions == 0 {
		t.Fatal("no cross-zone bridges: zones trained in isolation")
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "zone affinity") {
		t.Fatal("Format produced no output")
	}
}

// Crash-rate sweep: DYN P=3 keeps converging under fail-stops that halt
// All-Reduce (§4's asymmetry, simulated end to end).
func TestRobustnessCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is expensive")
	}
	res, err := RobustnessCrash(quick, []float64{0, 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes[0] != 0 {
		t.Fatalf("rate 0 scheduled %d crashes", res.Crashes[0])
	}
	if res.Crashes[1] == 0 {
		t.Fatal("rate 0.45 scheduled no crashes; pick a different seed offset")
	}
	for i := range res.Rates {
		if !res.DYNConverged[i] {
			t.Fatalf("DYN P=3 missed the threshold at rate %v: %+v", res.Rates[i], res)
		}
		wantAR := res.Crashes[i] == 0
		if res.ARConverged[i] != wantAR {
			t.Fatalf("AR converged=%v with %d crashes", res.ARConverged[i], res.Crashes[i])
		}
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "crash-rate sweep") {
		t.Fatal("Format produced no output")
	}
}

// The headline speedup holds across seeds, not just seed 1.
func TestRobustnessAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep is expensive")
	}
	res, err := Robustness(quick, 4)
	if err != nil {
		t.Fatal(err)
	}
	converged := 0
	for _, s := range res.Speedups {
		if s > 0 {
			converged++
			if s < 1.0 {
				t.Fatalf("a seed inverted the speedup: %+v", res.Speedups)
			}
		}
	}
	if converged < 3 {
		t.Fatalf("too few converged seeds: %+v (AR fail %d, DYN fail %d)",
			res.Speedups, res.ARFail, res.DYNFail)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "band:") {
		t.Fatal("Format produced no output")
	}
}
