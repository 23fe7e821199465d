package controller

// SyncGraph tracks the "recently synchronized together" relation the group
// filter uses for group-frozen avoidance (§4). Workers are vertices; every
// P-Reduce group contributes a clique over its members; only the most recent
// Window groups count. The controller requires Window ≥ ⌈(N−1)/(P−1)⌉, the
// minimum number of P-sized groups whose union can connect N vertices, so a
// disconnected graph over a full window is evidence of isolated sub-clusters
// rather than of a window that is simply too short.
type SyncGraph struct {
	n      int
	window int
	groups [][]int // ring buffer of the most recent groups
	next   int     // ring cursor
	filled bool
	parent []int // union-find scratch (roots)
	ids    []int // component-label scratch (Components)
}

// NewSyncGraph returns a graph over n workers remembering window groups.
func NewSyncGraph(n, window int) *SyncGraph {
	if n < 1 || window < 1 {
		panic("controller: SyncGraph needs n >= 1 and window >= 1")
	}
	return &SyncGraph{n: n, window: window, groups: make([][]int, 0, window), parent: make([]int, n), ids: make([]int, n)}
}

// Add records a copy of a formed group, evicting the oldest once the window
// is full: the copy reuses the evicted group's slot.
func (g *SyncGraph) Add(members []int) {
	if len(g.groups) < g.window {
		g.groups = append(g.groups, append([]int(nil), members...))
		if len(g.groups) == g.window {
			g.filled = true
		}
		return
	}
	g.groups[g.next] = append(g.groups[g.next][:0], members...)
	g.next = (g.next + 1) % g.window
}

// Full reports whether the window holds Window groups, the precondition for
// treating disconnection as group freeze.
func (g *SyncGraph) Full() bool { return g.filled }

// Len returns the number of groups currently in the window.
func (g *SyncGraph) Len() int { return len(g.groups) }

// roots runs union-find over the windowed groups in the graph's scratch
// buffer and returns it resolved: parent[i] is i's root, and parent[i] == i
// exactly at the roots. The buffer is reused by the next query.
func (g *SyncGraph) roots() []int {
	parent := g.parent
	for i := range parent {
		parent[i] = i
	}
	for _, grp := range g.groups {
		for i := 1; i < len(grp); i++ {
			if ra, rb := root(parent, grp[0]), root(parent, grp[i]); ra != rb {
				parent[ra] = rb
			}
		}
	}
	for i := range parent {
		parent[i] = root(parent, i)
	}
	return parent
}

// root finds x's root, halving the path on the way.
func root(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// Components labels each worker with a component id in [0, #components),
// numbered in order of each component's lowest worker. The labels are the
// graph's scratch, valid until its next Components or ConnectedAmong.
func (g *SyncGraph) Components() []int {
	parent := g.roots()
	ids := g.ids
	for i := range ids {
		ids[i] = -1
	}
	next := 0
	for i, r := range parent {
		if ids[r] < 0 {
			ids[r] = next
			next++
		}
		ids[i] = ids[r]
	}
	return ids
}

// NumComponents returns the number of connected components without
// allocating: the per-group connectivity gauge reads it.
func (g *SyncGraph) NumComponents() int {
	n := 0
	for i, r := range g.roots() {
		if i == r {
			n++
		}
	}
	return n
}

// Connected reports whether all workers are in one component.
func (g *SyncGraph) Connected() bool { return g.NumComponents() == 1 }

// ConnectedAmong reports whether every worker with alive[w] == true lies in
// one component — the connectivity that matters once failed workers are
// excluded from future groups (a dead worker is unreachable by construction
// and must not count as a frozen sub-cluster). A nil alive slice means all
// workers are alive.
func (g *SyncGraph) ConnectedAmong(alive []bool) bool {
	if alive == nil {
		return g.Connected()
	}
	ids := g.Components()
	first := -1
	for w, a := range alive {
		if !a {
			continue
		}
		if first == -1 {
			first = ids[w]
			continue
		}
		if ids[w] != first {
			return false
		}
	}
	return true
}
