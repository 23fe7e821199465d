package experiments

import (
	"bytes"
	"strings"
	"testing"

	"partialreduce/internal/metrics"
)

// Partition sweep: the no-partition cell sees no retry traffic, the
// partitioned cell times out and retries but still converges with nobody
// condemned — §4's bounded-wait recovery simulated end to end.
func TestRobustnessPartitionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("partition sweep is expensive")
	}
	res, err := RobustnessPartition(quick, []float64{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Results[0].Comms; c.Retries != 0 || c.Timeouts != 0 || c.Aborts != 0 {
		t.Fatalf("no-partition cell recorded retry traffic: retries=%d timeouts=%d aborts=%d",
			c.Retries, c.Timeouts, c.Aborts)
	}
	if c := res.Results[1].Comms; c.Timeouts == 0 || c.Retries == 0 {
		t.Fatalf("partition never bit: retries=%d timeouts=%d", c.Retries, c.Timeouts)
	}
	for i, r := range res.Results {
		if !r.Converged {
			t.Fatalf("DYN P=3 missed the threshold at duration %v", res.Durations[i])
		}
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "partition sweep") {
		t.Fatal("Format produced no output")
	}

	// A negative control for the sweep contract itself.
	if _, err := RobustnessPartition(quick, nil); err == nil {
		t.Fatal("empty duration list accepted")
	}
}

// The acceptance property: the whole sweep — including the fault/retry trace
// in the Comms columns — is a pure function of (seed, durations). Two runs
// with the same seed export byte-identical summary CSVs.
func TestRobustnessPartitionDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism check runs the sweep twice")
	}
	csvOf := func() string {
		t.Helper()
		res, err := RobustnessPartition(quick, []float64{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := metrics.WriteSummaryCSV(&buf, res.Results...); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := csvOf(), csvOf()
	if a != b {
		t.Fatalf("same seed produced different fault/retry CSV traces:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	// The trace must actually contain retry evidence, or determinism is vacuous.
	if !strings.Contains(a, "retries") {
		t.Fatalf("summary CSV has no comms columns:\n%s", a)
	}
}
