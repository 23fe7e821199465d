package main

import (
	"testing"
	"time"
)

func TestCheckPartitionFlags(t *testing.T) {
	for _, c := range []struct {
		name        string
		partition   string
		ctrl, coll  time.Duration
		wantRefused bool
	}{
		{"no partition, no timeouts", "", 0, 0, false},
		{"no partition, timeouts", "", time.Second, time.Second, false},
		{"partition, both timeouts", "1,2@3s:8s", 500 * time.Millisecond, 2 * time.Second, false},
		{"partition, unbounded waits", "1,2@3s:8s", 0, 0, true},
		{"partition, no ctrl timeout", "1,2@3s:8s", 0, 2 * time.Second, true},
		{"partition, no collective timeout", "1,2@3s:8s", 500 * time.Millisecond, 0, true},
		{"never-healing partition, unbounded waits", "1@3s", 0, 0, true},
	} {
		err := checkPartitionFlags(c.partition, c.ctrl, c.coll)
		if (err != nil) != c.wantRefused {
			t.Errorf("%s: err = %v, want refused = %v", c.name, err, c.wantRefused)
		}
	}
}

func TestCheckElasticFlags(t *testing.T) {
	const n = 12
	for _, c := range []struct {
		name                                     string
		initial, joinAfter, drainAfter, to, step int
		wantRefused                              bool
	}{
		{"no elastic flags", 0, 0, 0, 0, 5, false},
		{"parked ranks only", 8, 0, 0, 0, 5, false},
		{"the 8→12→6 staircase", 8, 20, 60, 6, 10, false},
		{"drain only", 0, 0, 20, 6, 5, false},
		{"join without parked ranks", 0, 20, 0, 0, 5, true},
		{"join with every rank founding", n, 20, 0, 0, 5, true},
		{"join with zero step", 8, 20, 0, 0, 0, true},
		{"drain with negative step", 0, 0, 20, 6, -1, true},
		{"drain without -scale-to", 0, 0, 20, 0, 5, true},
		{"drain to a single rank", 0, 0, 20, 1, 5, true},
		{"drain to the whole world", 0, 0, 20, n, 5, true},
	} {
		err := checkElasticFlags(n, c.initial, c.joinAfter, c.drainAfter, c.to, c.step)
		if (err != nil) != c.wantRefused {
			t.Errorf("%s: err = %v, want refused = %v", c.name, err, c.wantRefused)
		}
	}
}
