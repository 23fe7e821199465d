package preduce

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

// End-to-end through the public API: simulate P-Reduce and All-Reduce on a
// heterogeneous cluster and check the paper's headline property.
func TestPublicSimulate(t *testing.T) {
	build := func() SimConfig {
		ds, err := GaussianMixture(MixtureConfig{
			Classes: 4, Dim: 16, Examples: 2400, Separation: 3.2, Noise: 1, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		train, test := ds.Split(0.8)
		prof := Profile{Name: "demo", WireParams: 1_000_000, BatchCompute: 0.1, BytesPerParam: 4}
		return SimConfig{
			N:         8,
			Spec:      Spec{Inputs: 16, Hidden: []int{16}, Classes: 4},
			Seed:      5,
			Train:     train,
			Test:      test,
			BatchSize: 16,
			Optimizer: OptimizerConfig{LR: 0.05, Momentum: 0.9},
			Profile:   prof,
			Hetero:    GPUSharing(8, 3, 0.1, 0.1, 5),
			Net:       DefaultNetwork(),
			Threshold: 0.9,
		}
	}

	pr, err := Simulate(build(), NewPReduce(PReduceConfig{P: 3}))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := Simulate(build(), NewAllReduce())
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Converged || !ar.Converged {
		t.Fatalf("unconverged: pr=%+v ar=%+v", pr, ar)
	}
	if pr.PerUpdate() >= ar.PerUpdate() {
		t.Fatalf("P-Reduce per-update %v !< AR %v under HL=3", pr.PerUpdate(), ar.PerUpdate())
	}
}

func TestPublicStrategyConstructors(t *testing.T) {
	names := map[string]Strategy{
		"CON P=3": NewPReduce(PReduceConfig{P: 3}),
		"DYN P=5": NewPReduce(PReduceConfig{P: 5, Weighting: Dynamic}),
		"AR":      NewAllReduce(),
		"ER":      NewEagerReduce(),
		"AD":      NewADPSGD(),
		"PS BSP":  NewPSBSP(),
		"PS ASP":  NewPSASP(),
		"PS HETE": NewPSHETE(),
		"PS BK-2": NewPSBK(2),
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestPublicSpectral(t *testing.T) {
	d := GroupDist{
		N:      3,
		Groups: [][]int{{0, 1}, {1, 2}, {0, 2}},
		Probs:  []float64{1.0 / 3, 1.0 / 3, 1.0 / 3},
	}
	m, err := MeanW(d)
	if err != nil {
		t.Fatal(err)
	}
	rho, err := Rho(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-0.5) > 1e-9 {
		t.Fatalf("rho=%v want 0.5", rho)
	}
	if RhoBar(0) != 0 {
		t.Fatal("RhoBar(0)")
	}
	if !LearningRateFeasible(1e-6, 1, 8, 3, rho) {
		t.Fatal("tiny gamma should be feasible")
	}
	if got := UniformGroups(4, 2); len(got.Groups) != 6 {
		t.Fatalf("UniformGroups(4,2): %d groups", len(got.Groups))
	}
}

func TestPublicLive(t *testing.T) {
	ds, err := GaussianMixture(MixtureConfig{
		Classes: 3, Dim: 10, Examples: 1200, Separation: 3.5, Noise: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.8)
	rep, err := RunLive(LiveConfig{
		N: 4, P: 2,
		Spec:      Spec{Inputs: 10, Hidden: []int{12}, Classes: 3},
		Seed:      9,
		Train:     train,
		Test:      test,
		BatchSize: 16,
		Optimizer: OptimizerConfig{LR: 0.05, Momentum: 0.9},
		Iters:     80,
	}, NewMemWorld(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalAccuracy < 0.85 {
		t.Fatalf("live accuracy %.3f", rep.FinalAccuracy)
	}
}

func TestPublicProfiles(t *testing.T) {
	for _, p := range []Profile{ResNet18, ResNet34, VGG16, VGG19, DenseNet121} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if PaperOptimizer().LR != 0.1 {
		t.Fatal("paper optimizer LR")
	}
}

func TestPublicCSVAndReplay(t *testing.T) {
	var buf bytes.Buffer
	r := &Result{Strategy: "AR", Curve: []Point{{Time: 1, Updates: 5, Accuracy: 0.4}}}
	if err := WriteCurvesCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	if err := WriteSummaryCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AR") {
		t.Fatal("CSV missing data")
	}
	h, err := ReplayTrace(strings.NewReader("0,0.5\n1,0.7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.ComputeTime(1, 0) != 0.7 {
		t.Fatal("replay trace wrong")
	}
}

// README's Quickstart is ExampleSimulate's body, so the snippet it shows is
// the one go test compiles and runs.
func TestReadmeQuickstartIsExampleSimulate(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	example, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, snippet, _ := strings.Cut(string(readme), "## Quickstart\n\n```go\n")
	snippet, _, _ = strings.Cut(snippet, "```")
	_, snippet, _ = strings.Cut(snippet, ")\n\n") // past the import block
	_, body, _ := strings.Cut(string(example), "func ExampleSimulate() {\n")
	body, _, _ = strings.Cut(body, "\t// Output:")
	body = strings.ReplaceAll("\n"+body, "\n\t", "\n")[1:]
	if snippet == "" || snippet != body {
		t.Fatalf("README Quickstart differs from ExampleSimulate's body:\n%s\n---\n%s", snippet, body)
	}
}
