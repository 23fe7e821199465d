package analyze

// Golden-file test: the analyzer over a seeded simulator trace must be
// byte-reproducible — same seed, same report bytes — and its phase
// partitions must close to each iteration's wall time within 1e-9 (the
// acceptance bound). Regenerate the golden with
//
//	go test ./internal/analyze/ -run SimGolden -update
//
// after an intentional change to the sim, the tracer, or the report
// format.

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"partialreduce/internal/experiments"
	"partialreduce/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// simReport runs the seeded traced sim and pushes its events through
// the full pipeline exactly as preduce-analyze would: export to JSONL
// bytes, parse back, merge, analyze, render.
func simReport(t *testing.T) (string, *Report) {
	t.Helper()
	_, c, err := experiments.TracedRun(experiments.Options{Seed: 7, Quick: true}, -1)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := trace.WriteJSONL(&jsonl, c.Tracer.Events(), c.Tracer.Dropped()); err != nil {
		t.Fatal(err)
	}
	events, err := ParseJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge([]RankTrace{{Rank: -1, Events: events}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateMerged(m, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WriteReport(&out, rep, 10); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteIterCSV(&csv, rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteGroupCSV(&csv, rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlameCSV(&csv, rep); err != nil {
		t.Fatal(err)
	}
	return out.String() + "\n--- csv ---\n" + csv.String(), rep
}

func TestAnalyzeSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("traced sim run in -short mode")
	}
	got, rep := simReport(t)

	// Byte-reproducible: a second full pipeline run emits identical bytes.
	again, _ := simReport(t)
	if got != again {
		t.Fatal("analyzer output differs between two same-seed runs")
	}

	// Phase partitions close to the wall time within the acceptance bound.
	if len(rep.Iters) == 0 || len(rep.Groups) == 0 {
		t.Fatalf("degenerate report: %d iters, %d groups", len(rep.Iters), len(rep.Groups))
	}
	for _, it := range rep.Iters {
		sum := 0.0
		for _, v := range it.Phases {
			sum += v
		}
		if d := math.Abs(sum - it.Wall()); d > 1e-9 {
			t.Fatalf("rank %d iter %d: phase sum off by %g (> 1e-9)", it.Rank, it.Iter, d)
		}
	}

	golden := filepath.Join("testdata", "sim_report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("report differs from %s (rerun with -update after intentional changes); got %d bytes, want %d", golden, len(got), len(want))
	}
}

// The sim's blame ledger must balance: every group's induced wait lands
// on exactly one rank, so per-rank blame sums to the per-group total.
func TestAnalyzeSimBlameBalances(t *testing.T) {
	if testing.Short() {
		t.Skip("traced sim run in -short mode")
	}
	_, rep := simReport(t)
	groupTotal := 0.0
	for _, g := range rep.Groups {
		groupTotal += g.Induced
	}
	rankTotal := 0.0
	criticals := 0
	for _, rs := range rep.Ranks {
		rankTotal += rs.Blame
		criticals += rs.Critical
	}
	if d := math.Abs(groupTotal - rankTotal); d > 1e-9 {
		t.Fatalf("blame imbalance: groups %v vs ranks %v", groupTotal, rankTotal)
	}
	attributed := 0
	for _, g := range rep.Groups {
		if g.Critical >= 0 {
			attributed++
		}
	}
	if criticals != attributed {
		t.Fatalf("critical counts %d != attributed groups %d", criticals, attributed)
	}
}
