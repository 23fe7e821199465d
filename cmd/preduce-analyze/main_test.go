package main

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partialreduce/internal/health"
	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// fixture records one two-member group on the host's ring (rank 1 arrives
// last), which the instruments fold as it is recorded, and captures it as a
// postmortem bundle in dir/pm. It returns the tracer, so callers can export
// the same events as trace files, and the bundle's path.
func fixture(t *testing.T, dir string) (*trace.Tracer, string) {
	t.Helper()
	now := 0.0
	tr := trace.New(trace.FuncClock(func() float64 { return now }), 64)
	tr.SetOrigin(0)
	ins := metrics.NewInstruments(2)
	tr.SetSink(ins.Observe)
	now = 1.0
	tr.Instant(trace.KReady, 0, 1, 0, 0)
	now = 1.5
	tr.Instant(trace.KReady, 1, 1, 0, 0)
	tr.Instant(trace.KGroupFormed, trace.ControllerTrack, 1, 1, 2)
	tr.Instant(trace.KStaleness, 0, 1, 0, 1)
	tr.Instant(trace.KStaleness, 1, 1, 0, 1)
	rec := health.NewRecorder(filepath.Join(dir, "pm"), tr, ins, []byte(`{"n":2}`))
	path, err := rec.Capture("operator-requested", 2.0, nil, health.New(health.SLO{}).State())
	if err != nil {
		t.Fatal(err)
	}
	return tr, path
}

// TestRunRejectsCorruptBundle: a flipped byte in one part of a bundle
// directory fails the read and names the part.
func TestRunRejectsCorruptBundle(t *testing.T) {
	_, path := fixture(t, t.TempDir())
	part := filepath.Join(path, health.PartScoreboard)
	data, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatalf("intact bundle: %v", err)
	}
	data[0] = 'R'
	if err := os.WriteFile(part, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{path}, &out)
	if err == nil || !strings.Contains(err.Error(), health.PartScoreboard) {
		t.Fatalf("corrupted bundle: err = %v, want one naming %s; output:\n%s", err, health.PartScoreboard, out.String())
	}
}

// TestRunRefusesVersion1Bundle: a bundle in the version-1 format (its parts
// plus a controller.bin snapshot, all CRCs intact) is refused by version,
// with an error naming both versions.
func TestRunRefusesVersion1Bundle(t *testing.T) {
	_, path := fixture(t, t.TempDir())
	man, _, err := health.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	ctl := []byte{0xde, 0xad, 0xbe, 0xef}
	man.Version = 1
	man.Parts = append(man.Parts, health.PartInfo{Name: "controller.bin", Size: int64(len(ctl)), CRC32: crc32.ChecksumIEEE(ctl)})
	manJSON, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "controller.bin"), ctl, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, health.PartManifest), manJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{path}, &out)
	if err == nil || !strings.Contains(err.Error(), "version 1, want 3") {
		t.Fatalf("version-1 bundle: err = %v, want the version refusal; output:\n%s", err, out.String())
	}
}

// TestRunReadsEveryArtifact: one invocation reads a .jsonl trace, a Chrome
// .json export and a bundle directory; a bad .json and an unknown kind of
// file fail the run.
func TestRunReadsEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	tr, _ := fixture(t, dir)
	jsonl := filepath.Join(dir, "run.jsonl")
	chrome := filepath.Join(dir, "run.json")
	if err := writeFile(jsonl, func(f *os.File) error { return trace.WriteJSONL(f, tr.Events(), 0) }); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(chrome, func(f *os.File) error { return trace.WriteChrome(f, tr.Events()) }); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-validate", chrome, jsonl, filepath.Join(dir, "pm")}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		chrome + ": ok (",
		"postmortem bundle " + filepath.Join(dir, "pm", "postmortem-000-operator-requested"),
		"watchdog state", "straggler scoreboard", "run config",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	// The trace file and the bundle's ring take the same path: two reports,
	// both charging rank 1.
	ledgers := strings.Split(text, "Blame ledger")[1:]
	if len(ledgers) != 2 {
		t.Fatalf("%d blame reports, want 2 (file and bundle):\n%s", len(ledgers), text)
	}
	for _, l := range ledgers {
		if top := strings.Fields(strings.Split(l, "\n")[2]); len(top) == 0 || top[0] != "1" {
			t.Errorf("blame ledger top row %q, want rank 1:\n%s", top, text)
		}
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents": [{"ph": "X"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", bad}, &out); err == nil {
		t.Error("a bad Chrome trace passed -validate")
	}
	if err := run([]string{chrome + ".txt"}, &out); err == nil {
		t.Error("a missing file was accepted")
	}
	other := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(other, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{other}, &out); err == nil {
		t.Error("an unknown artifact kind was accepted")
	}
}
