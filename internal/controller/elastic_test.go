package controller

import (
	"errors"
	"testing"
)

// A drain that lands while the queue is mid-formation must both finish the
// in-flight group (the shrunken active set can complete it immediately) and
// exclude the draining rank from all future formation.
func TestDrainDuringGroupFormation(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 4})
	ready(t, c, 0, 1)
	ready(t, c, 1, 1)
	ready(t, c, 2, 1) // three of four queued: the group is one signal short
	e0 := c.Epoch()

	gs, err := c.Drain(3)
	if err != nil {
		t.Fatal(err)
	}
	// The active set shrank to 3, so the pending trio forms right now.
	if len(gs) != 1 || len(gs[0].Members) != 3 {
		t.Fatalf("drain did not complete the pending group: %+v", gs)
	}
	for _, m := range gs[0].Members {
		if m == 3 {
			t.Fatal("draining rank grouped into a new formation")
		}
	}
	if c.Epoch() != e0+1 {
		t.Fatalf("epoch %d after drain, want %d", c.Epoch(), e0+1)
	}
	// A draining rank may not start new work.
	if _, err := c.Ready(Signal{Worker: 3, Iter: 2}); !errors.Is(err, ErrDraining) {
		t.Fatalf("ready from draining rank: %v, want ErrDraining", err)
	}
	if _, err := c.Decommission(3); err != nil {
		t.Fatal(err)
	}
	if c.IsMember(3) || c.ActiveCount() != 3 {
		t.Fatalf("decommission left member=%v active=%d", c.IsMember(3), c.ActiveCount())
	}
	st := c.Stats()
	if st.Drains != 1 || st.Decommissions != 1 || st.Failures != 0 {
		t.Fatalf("graceful departure miscounted: %+v", st)
	}
}

// An epoch-stale ready signal is rejected deterministically — and harmlessly:
// the sender stays alive, uncondemned, and its refreshed signal is accepted.
func TestStaleEpochRejectedWithoutCondemning(t *testing.T) {
	c := mustNew(t, Config{N: 6, P: 2, Initial: 4})
	old := c.Epoch()
	if err := c.Join(4); err != nil { // membership change: epoch moves on
		t.Fatal(err)
	}
	if _, err := c.Ready(Signal{Worker: 1, Iter: 1, Epoch: old}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale signal: %v, want ErrStaleEpoch", err)
	}
	if !c.IsAlive(1) || !c.IsMember(1) {
		t.Fatal("stale-epoch rejection condemned the sender")
	}
	st := c.Stats()
	if st.StaleEpochs != 1 || st.Failures != 0 {
		t.Fatalf("stale rejection miscounted: %+v", st)
	}
	// Refreshed (or unversioned) signals are accepted; nothing was lost.
	if _, err := c.Ready(Signal{Worker: 1, Iter: 1, Epoch: c.Epoch()}); err != nil {
		t.Fatalf("refreshed signal rejected: %v", err)
	}
	if c.QueueDepth() != 1 {
		t.Fatalf("queue %d after refreshed signal, want 1", c.QueueDepth())
	}
}

// Adaptive sizing must re-normalize when membership changes mid-run: a
// straggler's cadence estimate drags P down to 2 while it is a member,
// and once the straggler drains out the dispersion is computed over the
// remaining (homogeneous) members only, so P recovers to the configured size.
func TestAdaptivePolicyRenormalizesOnMembershipChange(t *testing.T) {
	const n, p = 6, 4
	c := mustNew(t, Config{N: n, P: p, AdaptiveP: true})

	readyAt := func(w, iter int, now float64) []Group {
		t.Helper()
		gs, err := c.Ready(Signal{Worker: w, Iter: iter, Now: now})
		if err != nil {
			t.Fatalf("Ready(%d@%v): %v", w, now, err)
		}
		return gs
	}

	// Phase 1: ranks 0..4 signal once per unit of time; rank 5 at half that
	// cadence. Dispersion 2.0 clears the shrink threshold, so the decided P
	// walks down to 2 while the straggler is a member.
	minP := p
	var sizes []int
	for r := 1; r <= 16; r++ {
		for w := 0; w < 5; w++ {
			for _, g := range readyAt(w, r, float64(r)) {
				sizes = append(sizes, len(g.Members))
			}
		}
		if r%2 == 0 {
			for _, g := range readyAt(5, r/2, float64(r)) {
				sizes = append(sizes, len(g.Members))
			}
		}
	}
	for _, s := range sizes {
		if s < minP {
			minP = s
		}
	}
	if minP != 2 {
		t.Fatalf("straggler did not shrink groups to 2: min size %d (sizes %v)", minP, sizes)
	}

	// Phase 2: the straggler drains out. Its stale cadence estimate must not
	// count against the new, smaller membership — dispersion over the five
	// homogeneous survivors is ~1, so P grows back to the configured size.
	if gs, err := c.Drain(5); err != nil {
		t.Fatal(err)
	} else if len(gs) > 0 {
		sizes = sizes[:0]
	}
	if _, err := c.Decommission(5); err != nil {
		t.Fatal(err)
	}
	last := 0
	for r := 17; r <= 40; r++ {
		for w := 0; w < 5; w++ {
			for _, g := range readyAt(w, r, float64(r)) {
				last = len(g.Members)
			}
		}
	}
	if last != p {
		t.Fatalf("P did not recover to %d after the straggler drained: last group size %d", p, last)
	}
}
