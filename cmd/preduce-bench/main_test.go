package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partialreduce/internal/experiments"
	"partialreduce/internal/metrics"
)

type oneExport struct{}

func (oneExport) Format(w io.Writer) {}
func (oneExport) Exports() []experiments.Export {
	return []experiments.Export{{Results: []*metrics.Result{{Strategy: "AR", Workload: "w"}}}}
}

// A CSV that cannot be written is an error (it used to be a stderr line and
// exit 0); one that can lands under the experiment's ID.
func TestExportReportsWriteFailure(t *testing.T) {
	dir := t.TempDir()
	if err := export("table1", oneExport{}, dir, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil || !strings.Contains(string(data), "AR,w,") {
		t.Fatalf("table1.csv: %q, %v", data, err)
	}
	// A regular file where the directory should be: the create must fail.
	blocked := filepath.Join(dir, "table1.csv")
	if err := export("table1", oneExport{}, blocked, false); err == nil {
		t.Fatal("export into an uncreatable path reported success")
	}
}
