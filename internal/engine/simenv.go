package engine

import (
	"partialreduce/internal/cluster"
)

// SimEnv is the simulated substrate: virtual clock, analytic α–β
// communication costs, and — crucially — the modeled traffic accounting
// folded inside. Strategies used to mirror every cost query with a matching
// ChargeRing/ChargeExchange call, a drift hazard (forget one and the comm
// columns silently diverge from the event timeline); here the query and the
// charge are one method, so a collective the engine prices is a collective
// the summary counts, by construction. A `make ci` guard keeps direct
// charging calls from reappearing outside this package.
type SimEnv struct {
	// C is the underlying cluster substrate. Drivers reach through it for
	// workers, the event engine, and the tracer; all traffic charging goes
	// through the methods below.
	C *cluster.Cluster
}

// NewSimEnv wraps a cluster as the engine's simulated substrate.
func NewSimEnv(c *cluster.Cluster) *SimEnv { return &SimEnv{C: c} }

// GroupRing prices one executed ring all-reduce among members and charges
// its traffic (2(g−1)·WireBytes each way plus g·ring/2 modeled seconds per
// ring phase). It returns the modeled duration for the caller to charge the
// event engine. Call it once per attempt: an attempt that later times out
// still moved (some of) its bytes, exactly as the live runtime counts
// aborted attempts' partial traffic.
func (e *SimEnv) GroupRing(members []int) float64 {
	ring := e.C.RingTime(members)
	e.C.ChargeRing(len(members), ring)
	return ring
}

// WorldRing prices and charges one executed full-cluster ring all-reduce.
func (e *SimEnv) WorldRing() float64 {
	ring := e.C.RingTimeAll()
	e.C.ChargeRing(e.C.Cfg.N, ring)
	return ring
}

// Exchanges charges n executed point-to-point model exchanges (a PS
// push/pull round trip, or one half of a pairwise average).
func (e *SimEnv) Exchanges(n int) { e.C.ChargeExchange(n) }

// BootstrapTransfer prices one elastic scale-out bootstrap — the donor
// ships its full model state to the joiner point-to-point — and charges its
// traffic. Like the other methods it returns the modeled duration for the
// caller to charge the event engine.
func (e *SimEnv) BootstrapTransfer(donor, joiner int) float64 {
	dt := e.C.PairTime(donor, joiner)
	e.C.ChargeExchange(1)
	return dt
}
