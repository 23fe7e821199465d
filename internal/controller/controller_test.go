package controller

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func ready(t *testing.T, c *Controller, worker, iter int) []Group {
	t.Helper()
	gs, err := c.Ready(Signal{Worker: worker, Iter: iter})
	if err != nil {
		t.Fatalf("Ready(%d): %v", worker, err)
	}
	return gs
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{N: 1, P: 2},
		{N: 4, P: 1},
		{N: 4, P: 5},
		{N: 4, P: 2, Window: -1},
		{N: 8, P: 2, Window: 2}, // below MinWindow(8,2)=7
		{N: 4, P: 2, Alpha: 1},
		{N: 4, P: 2, Alpha: -0.5},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
	if err := (Config{N: 8, P: 3}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestMinWindow(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{4, 2, 3}, {8, 2, 7}, {8, 3, 4}, {8, 5, 2}, {3, 2, 2}, {8, 8, 1},
	}
	for _, c := range cases {
		if got := MinWindow(c.n, c.p); got != c.want {
			t.Errorf("MinWindow(%d,%d)=%d want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestFIFOGrouping(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 2})
	if gs := ready(t, c, 3, 1); len(gs) != 0 {
		t.Fatalf("group formed with one signal: %v", gs)
	}
	gs := ready(t, c, 1, 1)
	if len(gs) != 1 {
		t.Fatalf("expected one group, got %d", len(gs))
	}
	g := gs[0]
	if g.Members[0] != 3 || g.Members[1] != 1 {
		t.Fatalf("pop order not FIFO: %v", g.Members)
	}
	if len(g.Weights) != 2 || g.Weights[0] != 0.5 || g.Weights[1] != 0.5 {
		t.Fatalf("constant weights: %v", g.Weights)
	}
	if c.QueueDepth() != 0 {
		t.Fatalf("queue not drained: %d", c.QueueDepth())
	}
}

func TestReadyErrors(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 3})
	if _, err := c.Ready(Signal{Worker: -1}); err == nil {
		t.Error("negative worker accepted")
	}
	if _, err := c.Ready(Signal{Worker: 4}); err == nil {
		t.Error("out-of-range worker accepted")
	}
	ready(t, c, 2, 1)
	if _, err := c.Ready(Signal{Worker: 2}); err == nil {
		t.Error("duplicate signal accepted")
	}
}

func TestGroupIterFastForward(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 3})
	ready(t, c, 0, 5)
	ready(t, c, 1, 9)
	gs := ready(t, c, 2, 7)
	if len(gs) != 1 || gs[0].Iter != 9 {
		t.Fatalf("fast-forward iter: %+v", gs)
	}
}

func TestDefaultsResolved(t *testing.T) {
	c := mustNew(t, Config{N: 8, P: 3})
	if c.cfg.Window != MinWindow(8, 3) {
		t.Fatalf("window default: %d", c.cfg.Window)
	}
	if c.cfg.Alpha != 0.6 {
		t.Fatalf("alpha default: %v", c.cfg.Alpha)
	}
}

func TestStats(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 2})
	for round := 0; round < 3; round++ {
		for w := 0; w < 4; w++ {
			ready(t, c, w, round)
		}
	}
	if got := c.Stats().GroupsFormed; got != 6 {
		t.Fatalf("groups formed: %d", got)
	}
}

// Without the group filter, a pathological arrival order freezes two
// two-worker cliques forever; with the filter, the controller bridges them.
func TestGroupFrozenAvoidance(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 2})
	// Arrival pattern 0,1,2,3 repeated would always pair (0,1) and (2,3).
	pairCount := map[[2]int]int{}
	for round := 0; round < 20; round++ {
		for w := 0; w < 4; w++ {
			for _, g := range ready(t, c, w, round) {
				key := [2]int{g.Members[0], g.Members[1]}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				pairCount[key]++
			}
		}
	}
	if c.Stats().Interventions == 0 {
		t.Fatal("filter never intervened on a frozen pattern")
	}
	bridging := 0
	for pair, n := range pairCount {
		if (pair[0] < 2) != (pair[1] < 2) { // spans {0,1} x {2,3}
			bridging += n
		}
	}
	if bridging == 0 {
		t.Fatalf("no bridging groups formed: %v", pairCount)
	}
}

func TestGroupFilterDisabled(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 2, DisableGroupFilter: true})
	for round := 0; round < 20; round++ {
		for w := 0; w < 4; w++ {
			for _, g := range ready(t, c, w, round) {
				a, b := g.Members[0], g.Members[1]
				if (a < 2) != (b < 2) {
					t.Fatalf("round %d: bridging group %v formed with filter disabled", round, g.Members)
				}
			}
		}
	}
	if c.Stats().Interventions != 0 {
		t.Fatal("disabled filter reported interventions")
	}
}

// Deferral: when freeze is detected and no bridging signal waits, the
// controller holds the candidate until one arrives rather than forming a
// frozen group.
func TestFrozenDeferral(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 2})
	// Build a frozen history: (0,1),(2,3),(0,1) fills the window of 3.
	ready(t, c, 0, 0)
	ready(t, c, 1, 0)
	ready(t, c, 2, 0)
	ready(t, c, 3, 0)
	ready(t, c, 0, 1)
	ready(t, c, 1, 1)
	// Window full, graph {0-1},{2-3} disconnected. Next same-component pair
	// must be deferred...
	if gs := ready(t, c, 0, 2); len(gs) != 0 {
		t.Fatalf("expected no group yet, got %v", gs)
	}
	if gs := ready(t, c, 1, 2); len(gs) != 0 {
		t.Fatalf("deferral failed: formed %v", gs)
	}
	if c.QueueDepth() != 2 {
		t.Fatalf("queue length %d, want 2 held signals", c.QueueDepth())
	}
	// ...and released as a bridging group when worker 2 shows up.
	gs := ready(t, c, 2, 1)
	if len(gs) != 1 {
		t.Fatalf("bridge group not formed: %v", gs)
	}
	g := gs[0]
	if !g.Bridged {
		t.Fatal("group not marked bridged")
	}
	span := (g.Members[0] < 2) != (g.Members[1] < 2)
	if !span {
		t.Fatalf("bridge group %v does not span components", g.Members)
	}
}

func TestMeanWProperties(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 2})
	if c.MeanW() != nil {
		t.Fatal("MeanW before any group should be nil")
	}
	for round := 0; round < 50; round++ {
		for w := 0; w < 4; w++ {
			ready(t, c, (w+round)%4, round) // rotate arrivals to vary pairs
		}
	}
	m := c.MeanW()
	n := 4
	// Doubly stochastic: symmetric with unit row sums.
	if !m.IsSymmetric(1e-12) {
		t.Fatalf("E[W] not symmetric:\n%v", m)
	}
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			if m.At(i, j) < 0 {
				t.Fatalf("negative entry at (%d,%d)", i, j)
			}
			row += m.At(i, j)
		}
		if math.Abs(row-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, row)
		}
	}
}

func TestMeanWAllReduceLimit(t *testing.T) {
	// P=N: every group is global, so E[W] must be the rank-one 1/N matrix.
	c := mustNew(t, Config{N: 4, P: 4})
	for round := 0; round < 5; round++ {
		for w := 0; w < 4; w++ {
			ready(t, c, w, round)
		}
	}
	m := c.MeanW()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(m.At(i, j)-0.25) > 1e-12 {
				t.Fatalf("E[W](%d,%d)=%v want 0.25", i, j, m.At(i, j))
			}
		}
	}
}

func TestZoneAffinityValidation(t *testing.T) {
	if (Config{N: 4, P: 2, ZoneAffinity: true}).Validate() == nil {
		t.Fatal("affinity without zones accepted")
	}
	if (Config{N: 4, P: 2, Zones: []int{0, 1}}).Validate() == nil {
		t.Fatal("wrong-length zones accepted")
	}
	if err := (Config{N: 4, P: 2, Zones: []int{0, 0, 1, 1}, ZoneAffinity: true}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// With zone affinity, interleaved cross-zone arrivals still produce mostly
// same-zone groups, while the frozen-avoidance filter periodically bridges
// zones to keep the sync-graph connected.
func TestZoneAffinityGrouping(t *testing.T) {
	c := mustNew(t, Config{
		N: 4, P: 2,
		Zones: []int{0, 1, 0, 1}, ZoneAffinity: true,
	})
	sameZone, crossZone := 0, 0
	for round := 0; round < 40; round++ {
		// Arrivals alternate zones: plain FIFO would always pair across.
		for _, w := range []int{0, 1, 2, 3} {
			for _, g := range ready(t, c, w, round) {
				if (g.Members[0] % 2) == (g.Members[1] % 2) { // zones are id parity
					sameZone++
				} else {
					crossZone++
				}
			}
		}
	}
	if sameZone == 0 {
		t.Fatal("affinity produced no same-zone groups")
	}
	if crossZone == 0 {
		t.Fatal("no cross-zone bridges formed; zones are isolated")
	}
	if sameZone < 2*crossZone {
		t.Fatalf("affinity too weak: %d same-zone vs %d cross-zone", sameZone, crossZone)
	}
}

// Without affinity the same arrival pattern pairs across zones every time.
func TestNoAffinityPairsAcross(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 2, Zones: []int{0, 1, 0, 1}})
	cross := 0
	for round := 0; round < 10; round++ {
		for _, w := range []int{0, 1, 2, 3} {
			for _, g := range ready(t, c, w, round) {
				if (g.Members[0] % 2) != (g.Members[1] % 2) {
					cross++
				}
			}
		}
	}
	if cross == 0 {
		t.Fatal("expected cross-zone FIFO pairs")
	}
}

// Property: under random arrival orders (simulating arbitrary heterogeneity)
// the controller maintains its invariants — every group has exactly P
// distinct members, each popped member had a queued signal, no worker is
// double-queued, the group's Iter is the member max, weights form a
// distribution, and every worker keeps participating (no starvation).
func TestQuickControllerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		p := 2 + rng.Intn(n-1)
		weighting := Constant
		if rng.Intn(2) == 1 {
			weighting = Dynamic
		}
		c, err := New(Config{N: n, P: p, Weighting: weighting, Approx: ClosestIteration})
		if err != nil {
			return false
		}
		iters := make([]int, n)
		participation := make([]int, n)
		// Workers that are "free" to send a signal (not queued, not in a
		// group in flight — groups resolve instantly in this model).
		free := make([]bool, n)
		for i := range free {
			free[i] = true
		}
		for step := 0; step < 400; step++ {
			// Pick a random free worker; if none, the controller is holding
			// everyone, which must be impossible while free workers exist.
			candidates := candidates(free)
			if len(candidates) == 0 {
				return false
			}
			w := candidates[rng.Intn(len(candidates))]
			iters[w]++
			groups, err := c.Ready(Signal{Worker: w, Iter: iters[w]})
			if err != nil {
				return false
			}
			free[w] = false
			for _, g := range groups {
				if len(g.Members) != p {
					return false
				}
				seen := map[int]bool{}
				maxIter := 0
				var wsum float64
				for i, m := range g.Members {
					if seen[m] || free[m] {
						return false // duplicate member or member not queued
					}
					seen[m] = true
					if g.Iters[i] > maxIter {
						maxIter = g.Iters[i]
					}
					if g.Weights[i] < 0 || g.Weights[i] > 1 {
						return false
					}
					wsum += g.Weights[i]
				}
				if g.Iter != maxIter {
					return false
				}
				if wsum+g.InitWeight < 1-1e-9 || wsum+g.InitWeight > 1+1e-9 {
					return false
				}
				for _, m := range g.Members {
					iters[m] = g.Iter
					free[m] = true
					participation[m]++
				}
			}
		}
		// No starvation: every worker ended up in some group.
		for w, k := range participation {
			if k == 0 && !freeCount(free, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func candidates(free []bool) []int {
	var out []int
	for w, f := range free {
		if f {
			out = append(out, w)
		}
	}
	return out
}

// freeCount reports whether worker w is merely waiting in the queue (not
// starved — its signal simply has not been grouped yet).
func freeCount(free []bool, w int) bool { return !free[w] }

// TestRejoinEdgeCases: re-admitting a worker that never failed is an error
// (a tracking bug in the caller), as is an out-of-range id; a real rejoin
// works and is visible in liveness.
func TestRejoinEdgeCases(t *testing.T) {
	c := mustNew(t, Config{N: 3, P: 2})
	if err := c.Rejoin(1); err == nil {
		t.Fatal("rejoin of an alive worker accepted")
	}
	if err := c.Rejoin(-1); err == nil {
		t.Fatal("rejoin of rank -1 accepted")
	}
	if err := c.Rejoin(3); err == nil {
		t.Fatal("rejoin beyond N accepted")
	}
	c.Fail(1)
	if c.IsAlive(1) || c.ActiveCount() != 2 {
		t.Fatal("fail not recorded")
	}
	if err := c.Rejoin(1); err != nil {
		t.Fatal(err)
	}
	if !c.IsAlive(1) || c.ActiveCount() != 3 {
		t.Fatal("rejoin not recorded")
	}
	if err := c.Rejoin(1); err == nil {
		t.Fatal("double rejoin accepted")
	}
}

// TestPurgeSignalMidGroup: purging removes exactly the queued signal — a
// worker whose signal was already consumed by group formation has nothing to
// purge, and purging must not break subsequent grouping.
func TestPurgeSignalMidGroup(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 2})
	ready(t, c, 0, 1)
	if !c.IsQueued(0) {
		t.Fatal("signal not queued")
	}
	if !c.PurgeSignal(0) {
		t.Fatal("purge of a queued signal reported nothing removed")
	}
	if c.IsQueued(0) || c.QueueDepth() != 0 {
		t.Fatal("purge left the signal behind")
	}
	if c.PurgeSignal(0) {
		t.Fatal("second purge removed a phantom signal")
	}
	// A purged worker may signal again without tripping the duplicate check.
	if gs := ready(t, c, 0, 2); len(gs) != 0 {
		t.Fatalf("re-signal after purge formed %v", gs)
	}
	// Members of a formed group are no longer queued: nothing to purge.
	if gs := ready(t, c, 1, 1); len(gs) != 1 {
		t.Fatalf("group formation: %v", gs)
	}
	if c.PurgeSignal(0) || c.PurgeSignal(1) {
		t.Fatal("purged a signal already consumed by group formation")
	}
	// Out-of-range purge is a no-op, not a panic.
	if c.PurgeSignal(-1) || c.PurgeSignal(99) {
		t.Fatal("out-of-range purge reported success")
	}
}

// TestIsQueuedDrain: IsQueued distinguishes a retransmitted signal (still in
// the queue) from a consumed one, and a shrinking alive set drains whatever
// groups the current queue supports.
func TestIsQueuedDrain(t *testing.T) {
	c := mustNew(t, Config{N: 4, P: 3})
	if c.IsQueued(0) || c.IsQueued(-1) || c.IsQueued(7) {
		t.Fatal("phantom queued signals")
	}
	ready(t, c, 0, 1)
	if gs := ready(t, c, 1, 1); len(gs) != 0 {
		t.Fatalf("formed %+v from 2 < P signals", gs)
	}
	if !c.IsQueued(0) || !c.IsQueued(1) {
		t.Fatal("queued signals not visible")
	}
	// Shrinking the alive set (P clamps to survivors) makes the queue
	// formable; Fail's internal drain flushes it.
	if gs := c.Fail(3); len(gs) != 0 {
		t.Fatalf("first failure formed %+v with 2 signals < effective P", gs)
	}
	gs := c.Fail(2)
	if len(gs) != 1 || !reflect.DeepEqual(gs[0].Members, []int{0, 1}) {
		t.Fatalf("drain after shrink: %+v", gs)
	}
	if c.IsQueued(0) || c.IsQueued(1) {
		t.Fatal("drained members still queued")
	}
}
