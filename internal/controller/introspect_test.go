package controller

import "testing"

func TestQueueDepth(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 3})
	if got := c.QueueDepth(); got != 0 {
		t.Fatalf("fresh QueueDepth = %d, want 0", got)
	}
	ready(t, c, 0, 1)
	if got := c.QueueDepth(); got != 1 {
		t.Fatalf("QueueDepth after one signal = %d, want 1", got)
	}
	ready(t, c, 1, 1)
	if got := c.QueueDepth(); got != 2 {
		t.Fatalf("QueueDepth after two signals = %d, want 2", got)
	}
	gs := ready(t, c, 2, 1) // completes the P=3 group
	if len(gs) != 1 {
		t.Fatalf("expected a group, got %v", gs)
	}
	if got := c.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth after group formed = %d, want 0", got)
	}
}

func TestMaxContactAge(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 2})

	// Cold start: nobody has met anybody.
	if got := c.MaxContactAge(); got != -1 {
		t.Fatalf("cold MaxContactAge = %d, want -1", got)
	}

	// Group {0,1}, then {2,3}, then {0,2}, {1,3}: all pairs meet within a
	// few groups in FIFO order.
	pairs := [][2]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2}}
	iter := 0
	for _, p := range pairs {
		iter++
		ready(t, c, p[0], iter)
		gs := ready(t, c, p[1], iter)
		if len(gs) != 1 {
			t.Fatalf("pair %v did not form a group (got %v)", p, gs)
		}
	}
	// Every pair has now met: the age matrix is dense and the max age
	// equals groups-formed since the earliest pair.
	if got := c.MaxContactAge(); got < 0 {
		t.Fatalf("MaxContactAge = %d after all pairs met", got)
	}
	if got := c.MaxContactAge(); got != 5 { // {0,1} was the first of 6 groups
		t.Fatalf("MaxContactAge = %d, want 5", got)
	}
	// A condemned worker can never sync again: its frozen last-contact
	// entries leave the scan, and the oldest surviving pair is {2,3}, the
	// second of the 6 groups.
	c.ReportFailure(0)
	if got := c.MaxContactAge(); got != 4 {
		t.Fatalf("MaxContactAge without the dead worker = %d, want 4", got)
	}
}

// TestAccessorsDoNotMutate pins the read-only contract: interleaving
// accessor calls with signals must not change grouping decisions.
func TestAccessorsDoNotMutate(t *testing.T) {
	run := func(introspect bool) []Group {
		c := mustNew(t, Config{N: 4, P: 2})
		var got []Group
		for i := 1; i <= 8; i++ {
			for w := 0; w < 4; w++ {
				if introspect {
					_ = c.QueueDepth()
					_ = c.MaxContactAge()
				}
				gs, err := c.Ready(Signal{Worker: w, Iter: i})
				if err != nil {
					t.Fatalf("Ready: %v", err)
				}
				got = append(got, gs...)
			}
		}
		return got
	}
	plain, probed := run(false), run(true)
	if len(plain) != len(probed) {
		t.Fatalf("group counts differ: %d vs %d", len(plain), len(probed))
	}
	for i := range plain {
		if len(plain[i].Members) != len(probed[i].Members) {
			t.Fatalf("group %d differs", i)
		}
		for j := range plain[i].Members {
			if plain[i].Members[j] != probed[i].Members[j] {
				t.Fatalf("group %d member %d differs: %v vs %v", i, j, plain[i], probed[i])
			}
		}
	}
}
