// Package hetero models where per-update time variance comes from in the
// paper's three heterogeneity cases (§1): hardware sharing, communication
// differences, and resource contention in shared clouds. A hetero.Model maps
// (worker, virtual time) to the seconds that worker needs to compute one
// mini-batch gradient. All models are deterministic given their seed, and
// each worker draws from its own RNG stream (the paper's analysis assumes
// independent per-worker update-time distributions, §2.3).
package hetero

import (
	"fmt"
	"math"
	"math/rand"

	"partialreduce/internal/sim"
)

// Model samples per-batch compute durations.
type Model interface {
	// ComputeTime returns the seconds worker i needs for the batch that
	// starts at virtual time now. Calls must be monotone in now per worker.
	ComputeTime(worker int, now sim.Time) float64
	// Name identifies the model in experiment output.
	Name() string
}

// lognormal returns a multiplicative jitter factor with E[factor]=1:
// exp(sigma·Z − sigma²/2).
func lognormal(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(float64(sigma*rng.NormFloat64()) - float64(sigma*sigma/2))
}

// Homogeneous gives every worker the same base time with small independent
// jitter — the paper's HL=1 setting ("each GPU is monopolized by a worker").
type Homogeneous struct {
	Base   float64 // dedicated-accelerator seconds per batch
	Jitter float64 // lognormal sigma, e.g. 0.05
	rngs   []*rand.Rand
	seed   int64
}

// NewHomogeneous returns a homogeneous model for n workers.
func NewHomogeneous(n int, base, jitter float64, seed int64) *Homogeneous {
	h := &Homogeneous{Base: base, Jitter: jitter, seed: seed}
	h.rngs = workerStreams(n, seed)
	return h
}

// ComputeTime implements Model.
func (h *Homogeneous) ComputeTime(worker int, _ sim.Time) float64 {
	return h.Base * lognormal(h.rngs[worker], h.Jitter)
}

// Name implements Model.
func (h *Homogeneous) Name() string { return "homogeneous" }

// GPUSharing reproduces the paper's synthetic heterogeneous environment
// (§5.2): HL of the N workers are containers packed onto one physical GPU
// and contend for its cores and PCIe bandwidth, so each runs ≈HL× slower
// (plus contention noise); the other N−HL workers each own a device.
// HL=1 degenerates to Homogeneous.
type GPUSharing struct {
	Base       float64
	HL         int     // workers sharing the first GPU
	Jitter     float64 // lognormal sigma on every worker
	Contention float64 // extra sigma on the shared workers
	IdleChance float64 // probability a shared worker's batch runs contention-free
	rngs       []*rand.Rand
}

// NewGPUSharing returns a GPU-sharing model for n workers with hl sharers.
// It panics if hl is outside [1, n].
func NewGPUSharing(n, hl int, base, jitter float64, seed int64) *GPUSharing {
	if hl < 1 || hl > n {
		panic(fmt.Sprintf("hetero: HL=%d outside [1,%d]", hl, n))
	}
	return &GPUSharing{
		Base: base, HL: hl, Jitter: jitter, Contention: 0.15, IdleChance: 0.25,
		rngs: workerStreams(n, seed),
	}
}

// ComputeTime implements Model. Sharing slows the co-located workers by
// 1 + 0.45·(HL−1): kernels from co-located containers interleave rather
// than fully serialize, so the penalty is sub-linear in HL — calibrated to
// Table 1's observed AR per-update inflation (≈1.9× at HL=3, ≈1.5× at
// HL=2). Contention is bursty: with probability IdleChance the co-tenants
// happen to be idle for this batch and the worker runs at solo speed, which
// is what occasionally lets a shared worker beat a solo one (and lets PS BK
// include shared workers' shards in some rounds).
func (g *GPUSharing) ComputeTime(worker int, _ sim.Time) float64 {
	t := g.Base * lognormal(g.rngs[worker], g.Jitter)
	if worker < g.HL && g.HL > 1 {
		if g.rngs[worker].Float64() >= g.IdleChance {
			slowdown := 1 + float64(0.45*float64(g.HL-1))
			t *= slowdown * lognormal(g.rngs[worker], g.Contention)
		}
	}
	return t
}

// Name implements Model.
func (g *GPUSharing) Name() string { return fmt.Sprintf("gpu-sharing(HL=%d)", g.HL) }

// Trace models the paper's production cluster (§5.3): each worker is a
// container on shared machines whose effective speed switches between
// regimes (normal, loaded, heavily loaded, thrashing) as co-located jobs
// come and go. Regime dwell times are exponential; slowdowns are sampled
// per regime. This produces the long-tailed per-update distribution behind
// Fig. 9's 16.6× per-update gap between P-Reduce and All-Reduce.
type Trace struct {
	Base      float64
	Slowdowns []float64 // regime multipliers, e.g. {1, 2, 4, 12}
	Weights   []float64 // stationary probabilities of the regimes
	MeanDwell float64   // mean seconds per regime residence
	Jitter    float64

	rngs  []*rand.Rand
	state []int
	until []sim.Time
}

// NewTrace returns a production-trace model for n workers with the default
// regime structure.
func NewTrace(n int, base float64, seed int64) *Trace {
	t := &Trace{
		Base:      base,
		Slowdowns: []float64{1, 2, 5, 18},
		Weights:   []float64{0.50, 0.25, 0.15, 0.10},
		MeanDwell: 30,
		Jitter:    0.12,
		rngs:      workerStreams(n, seed),
		state:     make([]int, n),
		until:     make([]sim.Time, n),
	}
	for i := range t.state {
		t.advance(i, 0)
	}
	return t
}

func (t *Trace) advance(worker int, now sim.Time) {
	rng := t.rngs[worker]
	u := rng.Float64()
	acc := 0.0
	t.state[worker] = len(t.Slowdowns) - 1
	for s, w := range t.Weights {
		acc += w
		if u < acc {
			t.state[worker] = s
			break
		}
	}
	t.until[worker] = now + float64(rng.ExpFloat64()*t.MeanDwell)
}

// ComputeTime implements Model.
func (t *Trace) ComputeTime(worker int, now sim.Time) float64 {
	for now >= t.until[worker] {
		t.advance(worker, t.until[worker])
	}
	return t.Base * t.Slowdowns[t.state[worker]] * lognormal(t.rngs[worker], t.Jitter)
}

// Name implements Model.
func (t *Trace) Name() string { return "production-trace" }

// Fixed assigns each worker a constant multiplier over Base — useful for
// tests and for reproducing Fig. 4(b)'s "one worker is two times slower"
// construction exactly.
type Fixed struct {
	Base        float64
	Multipliers []float64
}

// ComputeTime implements Model.
func (f *Fixed) ComputeTime(worker int, _ sim.Time) float64 {
	return f.Base * f.Multipliers[worker]
}

// Name implements Model.
func (f *Fixed) Name() string { return "fixed" }

func workerStreams(n int, seed int64) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = sim.Stream(seed, int64(i))
	}
	return rngs
}
