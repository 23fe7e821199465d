package controller

// Adaptive group size (Config.AdaptiveP): bound the time fast workers burn
// waiting at group barriers by shrinking P when the cluster's compute
// speeds spread apart, and grow P back toward the configured size when they
// re-converge.
//
// The decision signal is per-worker signal-cadence dispersion. Each
// accepted ready signal updates an EMA of that worker's inter-signal gap
// (its end-to-end iteration period: compute + barrier wait +
// collective). The dispersion is the ratio of the slowest worker's gap
// to the median gap across active workers. Staleness itself is useless
// here — P-Reduce's fast-forwarding (§3.3.3) caps observed staleness at
// ~1 regardless of how skewed the cluster is — but cadence survives
// fast-forwarding untouched: a worker sharing its accelerator with one
// neighbor signals ~1.45× slower than the median, with three neighbors
// ~1.9× slower, while homogeneous jitter keeps the ratio under ~1.15.
//
// Every adaptWindow formed groups the size is re-decided with hysteresis:
// dispersion ≥ adaptHi shrinks P one step (never below adaptPMin),
// dispersion ≤ adaptLo grows it one step (never above the configured P);
// in between, P holds. Extreme dispersion (beyond adaptCap) instead walks
// P back toward the configured size — see adaptCap below. P starts at the
// configured size, so a homogeneous run never deviates from fixed P at
// all. All state is a handful of ints and two float vectors.

// Hysteresis thresholds on cadence dispersion (max gap / median gap).
// Homogeneous jitter stays below adaptLo; one straggler sharing an
// accelerator pushes dispersion past adaptHi. The dead band between them
// stops P from oscillating on a borderline cluster. (A depth-scaled
// band — requiring more dispersion evidence for each further step below
// the configured P — was tried and measured slower across the HL sweep:
// once dispersion clears adaptHi the barrier saving from each extra
// shrink step keeps outweighing the mixing cost, so flat thresholds win.)
const (
	adaptHi = 1.3
	adaptLo = 1.2
)

// adaptCap bounds the regime where shrinking makes sense. Group sizing
// helps against *mild, persistent* stragglers — workers slow enough to
// hold up barriers but fast enough to keep participating. Once the
// slowest worker's cadence blows past adaptCap× the median (production
// regime switches hit 5–18×), FIFO formation already routes around it —
// groups fill from whoever is ready — so shrinking buys no barrier time
// and only slows mixing. Above the cap P walks back toward the configured
// size instead. Shared-accelerator dispersion tops out near 1.9 (HL=3),
// comfortably under the cap.
const adaptCap = 2.5

// gapKeep is the EMA retention for the per-worker inter-signal gap:
// gap ← gapKeep·gap + (1−gapKeep)·sample. 0.8 forgets a regime switch
// in a handful of iterations without chasing single-batch jitter.
const gapKeep = 0.8

// adaptPMin is the smallest group adaptive sizing forms, so the sync-graph
// window is sized for it (Config.minGroup). adaptWindow is the re-decision
// interval in formed groups: long enough for every worker's cadence
// estimate to absorb a few samples, short enough to track a regime switch
// within tens of groups.
const (
	adaptPMin   = 2
	adaptWindow = 8
)

type adaptive struct {
	pmax      int       // configured P: the initial size, the ceiling, and where the tail guard walks back to
	cur       int       // current group size, always in [adaptPMin, pmax]
	lastAdapt int       // groups formed at the last re-decision
	lastSeen  []float64 // per worker: time of last ready signal, -1 before any
	gap       []float64 // per worker: EMA inter-signal gap, 0 before two signals
	scratch   []float64 // sort buffer for the dispersion quantiles
}

func newAdaptive(n, p int) *adaptive {
	a := &adaptive{
		pmax:     p,
		cur:      p,
		lastSeen: make([]float64, n),
		gap:      make([]float64, n),
		scratch:  make([]float64, n),
	}
	for i := range a.lastSeen {
		a.lastSeen[i] = -1
	}
	return a
}

// onSignal folds one ready signal into worker w's cadence estimate.
// Clock-less callers (all signals at now=0) never produce a positive
// gap, so the estimates stay empty and the size holds at the configured P.
func (a *adaptive) onSignal(w int, now float64) {
	if last := a.lastSeen[w]; last >= 0 && now > last {
		g := now - last
		if a.gap[w] == 0 {
			a.gap[w] = g
		} else {
			a.gap[w] = float64(gapKeep*a.gap[w]) + float64((1-gapKeep)*g)
		}
	}
	a.lastSeen[w] = now
}

// size returns the next group's size, re-deciding it first when a window
// of groups has formed since the last decision, clamped to the active
// worker count.
func (a *adaptive) size(groupsFormed, active int, activeMask []bool) int {
	if groupsFormed-a.lastAdapt >= adaptWindow {
		a.lastAdapt = groupsFormed
		a.adapt(activeMask)
	}
	return min(a.cur, active)
}

// adapt takes one hysteresis step on the cadence dispersion of the active
// workers. Fewer than two warm estimates (cold start, clock-less caller)
// means no evidence: hold.
func (a *adaptive) adapt(active []bool) {
	k := 0
	for w, g := range a.gap {
		if g > 0 && active[w] {
			a.scratch[k] = g
			k++
		}
	}
	if k < 2 {
		return
	}
	s := a.scratch[:k]
	for i := 1; i < k; i++ { // insertion sort: tiny k, zero allocations
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	median := s[k/2]
	if median <= 0 {
		return
	}
	switch dispersion := s[k-1] / median; {
	case dispersion > adaptCap:
		if a.cur < a.pmax { // extreme tail: recover, never shrink
			a.cur++
		}
	case dispersion >= adaptHi && a.cur > adaptPMin:
		a.cur--
	case dispersion <= adaptLo && a.cur < a.pmax:
		a.cur++
	}
}
