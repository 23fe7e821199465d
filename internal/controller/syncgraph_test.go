package controller

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSyncGraphEmpty(t *testing.T) {
	g := NewSyncGraph(4, 3)
	if g.Full() || g.Len() != 0 {
		t.Fatal("fresh graph should be empty")
	}
	if g.NumComponents() != 4 {
		t.Fatalf("components %d, want 4 singletons", g.NumComponents())
	}
	if g.Connected() {
		t.Fatal("empty graph cannot be connected with n>1")
	}
}

func TestSyncGraphConnectivity(t *testing.T) {
	g := NewSyncGraph(4, 3)
	g.Add([]int{0, 1})
	g.Add([]int{2, 3})
	if g.Connected() {
		t.Fatal("two cliques should be disconnected")
	}
	if g.NumComponents() != 2 {
		t.Fatalf("components %d, want 2", g.NumComponents())
	}
	g.Add([]int{1, 2})
	if !g.Connected() {
		t.Fatal("bridge should connect the graph")
	}
	if !g.Full() {
		t.Fatal("window of 3 should be full after 3 adds")
	}
}

func TestSyncGraphEviction(t *testing.T) {
	g := NewSyncGraph(4, 2)
	g.Add([]int{0, 1})
	g.Add([]int{1, 2})
	g.Add([]int{2, 3}) // evicts {0,1}
	comp := g.Components()
	if comp[0] == comp[1] {
		t.Fatal("evicted edge still connects workers 0 and 1")
	}
	if comp[1] != comp[2] || comp[2] != comp[3] {
		t.Fatal("recent edges lost")
	}
}

func TestSyncGraphCopiesMembers(t *testing.T) {
	g := NewSyncGraph(3, 2)
	m := []int{0, 1}
	g.Add(m)
	m[1] = 2 // mutating the caller's slice must not corrupt history
	comp := g.Components()
	if comp[0] != comp[1] {
		t.Fatal("graph aliased caller slice")
	}
	if comp[0] == comp[2] {
		t.Fatal("phantom edge appeared")
	}
}

func TestSyncGraphLargerGroups(t *testing.T) {
	g := NewSyncGraph(6, 2)
	g.Add([]int{0, 1, 2})
	g.Add([]int{3, 4, 5})
	if g.NumComponents() != 2 {
		t.Fatalf("components %d, want 2", g.NumComponents())
	}
}

func TestSyncGraphValidation(t *testing.T) {
	for _, c := range []struct{ n, w int }{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d w=%d: expected panic", c.n, c.w)
				}
			}()
			NewSyncGraph(c.n, c.w)
		}()
	}
}

// Property: component ids form a valid partition (every worker labelled,
// ids contiguous from 0) and any two members of a windowed group share one.
func TestQuickSyncGraphPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		window := 1 + rng.Intn(6)
		g := NewSyncGraph(n, window)
		var recent [][]int
		for k := 0; k < 20; k++ {
			p := 2 + rng.Intn(n-1)
			members := rng.Perm(n)[:p]
			g.Add(members)
			recent = append(recent, members)
			if len(recent) > window {
				recent = recent[1:]
			}
			comp := g.Components()
			maxID := 0
			for _, id := range comp {
				if id < 0 {
					return false
				}
				if id > maxID {
					maxID = id
				}
			}
			if maxID+1 != g.NumComponents() {
				return false
			}
			for _, grp := range recent {
				for _, w := range grp[1:] {
					if comp[w] != comp[grp[0]] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSyncGraphReadyCycleAllocFree gates the graph's share of a Ready cycle
// once the window is full and disconnected, the state in which the group
// filter runs: the connectivity check, the component labels it bridges by,
// the group's record (which evicts the oldest) and the connectivity gauge.
// Its adaptive cell gates adaptive sizing's share: a cadence update per
// signal and a size per formation, with clocks advancing and re-decisions
// inside the measured loop.
func TestSyncGraphReadyCycleAllocFree(t *testing.T) {
	t.Run("graph", testGraphCycleAllocFree)
	t.Run("adaptive", testAdaptiveCycleAllocFree)
}

func testGraphCycleAllocFree(t *testing.T) {
	g := NewSyncGraph(8, 4)
	groups := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 2}, {5, 6}}
	alive := make([]bool, 8)
	for i := range alive {
		alive[i] = true
	}
	k := 0
	cycle := func() {
		if g.Full() && g.ConnectedAmong(alive) {
			t.Fatal("window of pairs within {0…3} and {4…7} is connected")
		}
		_ = g.Components()
		g.Add(groups[k%len(groups)])
		k++
		_ = g.NumComponents()
	}
	for i := 0; i < 2*len(groups); i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("a steady-state Ready cycle's graph work allocates %.1f times", allocs)
	}
}

func testAdaptiveCycleAllocFree(t *testing.T) {
	const n = 8
	a := newAdaptive(n, 4)
	active := allActive(n)
	k := 0
	cycle := func() {
		// Worker 7 signals at half the others' cadence, so the dispersion
		// sort has evidence to act on.
		w := k % n
		period := 1.0
		if w == n-1 {
			period = 2
		}
		a.onSignal(w, float64(k/n+1)*period)
		_ = a.size(k, n, active)
		k++
	}
	for i := 0; i < 2*n; i++ {
		cycle()
	}
	before := a.lastAdapt
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("a steady-state cycle's adaptive sizing allocates %.1f times", allocs)
	}
	if a.lastAdapt == before {
		t.Fatal("no re-decision fell inside the measured loop")
	}
}
