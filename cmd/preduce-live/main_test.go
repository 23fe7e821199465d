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
