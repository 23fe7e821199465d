package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"partialreduce/internal/hetero"
)

// TestScheduleFile: the README's 8→12→6 schedule file is exactly the
// simulator's staircase, plus one partition window, and it passes the
// checks every rank runs before the mesh forms.
func TestScheduleFile(t *testing.T) {
	const n = 12
	s, err := loadSchedule("testdata/scale-8-12-6.json", n, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := hetero.ScaleSchedule(8, 12, 6, 20, 10); !reflect.DeepEqual(s.Elastic, want) {
		t.Fatalf("elastic schedule\n got %v\nwant %v", s.Elastic, want)
	}
	if s.Initial != 8 {
		t.Fatalf("Initial = %d, want 8", s.Initial)
	}
	if want := (hetero.PartitionSchedule{{Ranks: []int{1, 2}, From: 3, Until: 8}}); !reflect.DeepEqual(s.Partitions, want) {
		t.Fatalf("partitions = %v, want %v", s.Partitions, want)
	}
	if err := s.Elastic.Validate(n, s.Initial); err != nil {
		t.Fatal(err)
	}
	if err := s.Partitions.Validate(n); err != nil {
		t.Fatal(err)
	}
}

// scheduleCase is one schedule file and the timeouts it runs under.
type scheduleCase struct {
	name        string
	file        string
	ctrl, coll  time.Duration
	wantRefused bool
}

// checkSchedules decodes each case's file for a world of 12 and checks
// that exactly the cases marked refused are refused.
func checkSchedules(t *testing.T, cases []scheduleCase) {
	t.Helper()
	const n = 12
	for _, c := range cases {
		_, err := decodeSchedule(strings.NewReader(c.file), n, c.ctrl, c.coll)
		if (err != nil) != c.wantRefused {
			t.Errorf("%s: err = %v, want refused = %v", c.name, err, c.wantRefused)
		}
	}
}

// TestCheckPartitionFlags: partitions whose dropped frames nothing would
// re-send, or that name ranks outside the world, are refused before the
// mesh forms.
func TestCheckPartitionFlags(t *testing.T) {
	const part = `"Partitions": [{"Ranks": [1, 2], "From": 3, "Until": 8}]`
	sec := time.Second
	checkSchedules(t, []scheduleCase{
		{"empty schedule, no timeouts", `{}`, 0, 0, false},
		{"empty schedule, timeouts", `{}`, sec, sec, false},
		{"partition, both timeouts", `{` + part + `}`, sec / 2, 2 * sec, false},
		{"partition, unbounded waits", `{` + part + `}`, 0, 0, true},
		{"partition, no ctrl timeout", `{` + part + `}`, 0, 2 * sec, true},
		{"partition, no collective timeout", `{` + part + `}`, sec / 2, 0, true},
		{"never-healing partition, unbounded waits", `{"Partitions": [{"Ranks": [1], "From": 3}]}`, 0, 0, true},
		{"partition rank out of range", `{"Partitions": [{"Ranks": [12], "From": 3, "Until": 8}]}`, sec, sec, true},
		{"partition rank negative", `{"Partitions": [{"Ranks": [-1], "From": 3, "Until": 8}]}`, sec, sec, true},
	})
}

// TestCheckElasticFlags: an elastic schedule the run could not follow is
// refused before the mesh forms.
func TestCheckElasticFlags(t *testing.T) {
	checkSchedules(t, []scheduleCase{
		{"parked ranks only", `{"Initial": 8}`, 0, 0, false},
		{"drain only", `{"Elastic": [{"Worker": 11, "AfterUpdates": 20, "Kind": "drain"}]}`, 0, 0, false},
		{"join without parked ranks", `{"Elastic": [{"Worker": 11, "AfterUpdates": 20, "Kind": "join"}]}`, 0, 0, true},
		{"join with every rank founding", `{"Initial": 12, "Elastic": [{"Worker": 11, "AfterUpdates": 20, "Kind": "join"}]}`, 0, 0, true},
		{"join at a zero trigger", `{"Initial": 8, "Elastic": [{"Worker": 8, "AfterUpdates": 0, "Kind": "join"}]}`, 0, 0, true},
		{"events out of order", `{"Elastic": [{"Worker": 11, "AfterUpdates": 30, "Kind": "drain"}, {"Worker": 10, "AfterUpdates": 20, "Kind": "drain"}]}`, 0, 0, true},
		{"drain of a parked rank", `{"Initial": 8, "Elastic": [{"Worker": 10, "AfterUpdates": 20, "Kind": "drain"}]}`, 0, 0, true},
		{"drain to a single rank", `{"Initial": 2, "Elastic": [{"Worker": 1, "AfterUpdates": 20, "Kind": "drain"}]}`, 0, 0, true},
		{"elastic rank out of range", `{"Elastic": [{"Worker": 12, "AfterUpdates": 20, "Kind": "drain"}]}`, 0, 0, true},
		{"Initial of one", `{"Initial": 1}`, 0, 0, true},
		{"Initial beyond the world", `{"Initial": 13}`, 0, 0, true},
	})
}

// TestDecodeSchedule: a file that is not strict JSON of the schedule type
// is refused.
func TestDecodeSchedule(t *testing.T) {
	checkSchedules(t, []scheduleCase{
		{"unknown field", `{"Initail": 8}`, 0, 0, true},
		{"unknown elastic kind", `{"Elastic": [{"Worker": 11, "AfterUpdates": 20, "Kind": "grow"}]}`, 0, 0, true},
		{"numeric elastic kind", `{"Elastic": [{"Worker": 11, "AfterUpdates": 20, "Kind": 1}]}`, 0, 0, true},
		{"trailing data", `{"Initial": 8} {}`, 0, 0, true},
		{"not JSON", `Initial=8`, 0, 0, true},
	})
}
