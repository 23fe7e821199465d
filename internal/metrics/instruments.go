package metrics

// Live instruments: a fold over the trace events. Where Result/CommStats
// summarize a finished run, Instruments are sampled while the run is in
// flight — the telemetry endpoint renders them as Prometheus text — and
// are fed by the run's tracer (Observe is its sink), plus three side
// calls for facts no event carries. All methods on Instruments are safe for
// concurrent use; a Histogram on its own is not (wrap it or confine it
// to one goroutine).

import (
	"math"
	"sort"
	"sync"

	"partialreduce/internal/trace"
)

// Histogram counts small non-negative integer observations exactly:
// values in [0, span) land in per-value buckets, larger ones in one
// overflow bucket. Staleness values are small by construction (the
// group filter bounds them), so exact counting beats log buckets.
type Histogram struct {
	counts   []int64
	overflow int64
	count    int64
	sum      int64
	max      int64
}

// NewHistogram returns a histogram with per-value buckets for [0, span).
// span <= 0 selects 64.
func NewHistogram(span int) *Histogram {
	if span <= 0 {
		span = 64
	}
	return &Histogram{counts: make([]int64, span)}
}

// Observe records v (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if int(v) < len(h.counts) {
		h.counts[v]++
	} else {
		h.overflow++
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Max returns the largest observation (0 before any).
func (h *Histogram) Max() int64 { return h.max }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Quantile returns the smallest value v such that at least q of the
// observations are <= v. Overflow observations resolve to Max. q is
// clamped to [0, 1].
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for v, c := range h.counts {
		cum += c
		if cum >= rank {
			return int64(v)
		}
	}
	return h.max
}

// Buckets returns a copy of the per-value counts plus the overflow count.
func (h *Histogram) Buckets() (counts []int64, overflow int64) {
	out := make([]int64, len(h.counts))
	copy(out, h.counts)
	return out, h.overflow
}

// clone deep-copies the histogram.
func (h *Histogram) clone() *Histogram {
	if h == nil {
		return nil
	}
	counts, _ := h.Buckets()
	return &Histogram{counts: counts, overflow: h.overflow, count: h.count, sum: h.sum, max: h.max}
}

// Instruments is the thread-safe bundle of live instruments one run
// maintains: the staleness histogram (per group member, at formation),
// per-worker barrier-wait totals (time spent waiting for the controller
// and for group peers instead of computing), the ready-queue depth at the
// latest ready signal, the sync-graph connectivity gauges (the quantity
// group-frozen avoidance bounds), and a running CommStats total.
type Instruments struct {
	mu sync.Mutex

	staleness   *Histogram
	queueDepth  float64   // ready-queue depth at the latest KReady
	barrierWait []float64 // per-worker cumulative seconds

	maxContactAge  int64 // groups since the most-estranged alive pair last met (-1: some pair never met)
	syncComponents int64 // connected components of the windowed sync-graph

	groupsFormed  int64
	interventions int64
	deferrals     int64

	epoch int64 // membership epoch at the latest controller bump

	policyP          int64 // group size at the latest adaptive-p decision (0: fixed P)
	policyDeviations int64 // adaptive-p sizes that differed from fixed P's

	// Online blame estimator, fed by each group's release (see Observe):
	// per-worker cumulative arrived-but-waiting seconds, cumulative blame
	// (seconds of other members' time the worker consumed by arriving
	// last), counts of groups where the worker was the last arrival, and an
	// EWMA of the worker's per-group blame — the "recent straggler" signal
	// the scoreboard ranks by.
	groupWait  []float64
	blame      []float64
	criticalN  []int64
	blameEWMA  []float64
	groupCount []int64 // groups each worker was a member of

	// The fold's state: each worker's latest KReady stamp and the
	// iteration it reported plus one (0: none yet), and the group being
	// collected from its KGroupFormed and KStaleness events (members and
	// arrivals in event order, sized once for the largest group).
	readyTS   []float64
	readyIter []int32
	pending   struct {
		seq, size int64
		release   float64
		members   []int
		arrivals  []float64
	}

	comms CommStats
}

// blameEWMADecay is the per-group decay of the recent-blame EWMA: each
// new group g updates ewma = decay·ewma + (1−decay)·blame(g). ~0.9 keeps
// roughly the last twenty groups in view.
const blameEWMADecay = 0.9

// NewInstruments returns instruments for an n-worker run, at epoch 1 (the
// controller's first world view).
func NewInstruments(n int) *Instruments {
	in := &Instruments{
		staleness:   NewHistogram(64),
		barrierWait: make([]float64, n),
		epoch:       1,
		groupWait:   make([]float64, n),
		blame:       make([]float64, n),
		criticalN:   make([]int64, n),
		blameEWMA:   make([]float64, n),
		groupCount:  make([]int64, n),
		readyTS:     make([]float64, n),
		readyIter:   make([]int32, n),
	}
	in.pending.members = make([]int, 0, n)
	in.pending.arrivals = make([]float64, 0, n)
	return in
}

// Observe folds one trace event into the instruments — a tracer's sink
// (trace.Tracer.SetSink), so /metrics, the watchdog and the scoreboard read
// the trace's stamps. KReady sets the queue depth, KDeferred a
// deferral, KGroupFormed a group, KBridged an intervention, KSignalWait its
// worker's barrier wait; membership kinds set the epoch (A). KStaleness
// feeds the histogram and collects its group (B = seq): once complete, the
// release at the KGroupFormed stamp is attributed over each member's latest
// KReady stamp at its iteration (NaN without one). Out-of-range workers
// are ignored.
func (in *Instruments) Observe(ev trace.Event) {
	in.mu.Lock()
	defer in.mu.Unlock()
	w := int(ev.Track)
	known := w >= 0 && w < len(in.barrierWait)
	switch ev.Kind {
	case trace.KReady:
		in.queueDepth = float64(ev.A)
		if known {
			in.readyTS[w], in.readyIter[w] = ev.TS, ev.Iter+1
		}
	case trace.KDeferred:
		in.deferrals++
	case trace.KGroupFormed:
		in.groupsFormed++
		p := &in.pending
		p.seq, p.size, p.release = ev.A, ev.B, ev.TS
		p.members, p.arrivals = p.members[:0], p.arrivals[:0]
	case trace.KBridged:
		in.interventions++
	case trace.KStaleness:
		in.staleness.Observe(ev.A)
		p := &in.pending
		if ev.B != p.seq || !known || int64(len(p.members)) >= p.size {
			return
		}
		arrival := math.NaN()
		if in.readyIter[w] == ev.Iter+1 {
			arrival = in.readyTS[w]
		}
		p.members = append(p.members, w)
		p.arrivals = append(p.arrivals, arrival)
		if int64(len(p.members)) == p.size {
			in.release(p.members, p.arrivals, p.release)
		}
	case trace.KSignalWait:
		if known && ev.Dur > 0 {
			in.barrierWait[w] += ev.Dur
		}
	case trace.KWorkerJoin, trace.KWorkerDrain, trace.KWorkerDecommission, trace.KWorkerDead:
		in.epoch = ev.A
	}
}

// SetSyncGauges updates the sync-graph connectivity gauges: maxAge is
// the groups-since-last-contact of the most estranged alive pair (-1
// when some pair has never met), components the number of connected
// components of the windowed graph. A side call, not an event: the
// controller reads its O(N²) contact matrix for it. Nil-safe.
func (in *Instruments) SetSyncGauges(maxAge, components int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.maxContactAge = int64(maxAge)
	in.syncComponents = int64(components)
	in.mu.Unlock()
}

// RecordPolicyDecision records one adaptive-p sizing decision: p the
// chosen group size, deviated whether it differs from fixed P's. A side
// call, not an event: KPolicyDecision marks deviations only. Nil-safe.
func (in *Instruments) RecordPolicyDecision(p int, deviated bool) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.policyP = int64(p)
	if deviated {
		in.policyDeviations++
	}
	in.mu.Unlock()
}

// Attribute is the blame rule: the one definition of who made whom wait,
// shared by the online fold (Observe) and the offline analyzer
// (analyze.Analyze). arrivals are one group's per-member arrival times,
// NaN where unknown. critical is the index of the latest known arrival —
// ties go to the higher index, the later-queued member, since FIFO pop
// order is queue order — or -1 when no arrival is known. induced is the
// seconds of other members' time the critical member's lateness consumed:
// Σ (arrivals[critical] − arrivals[i]) over the other known members,
// summed in index order.
func Attribute(arrivals []float64) (critical int, induced float64) {
	critical = -1
	for i, a := range arrivals {
		if !math.IsNaN(a) && (critical < 0 || a >= arrivals[critical]) {
			critical = i
		}
	}
	for i, a := range arrivals {
		if critical >= 0 && i != critical && !math.IsNaN(a) {
			induced += arrivals[critical] - a
		}
	}
	return critical, induced
}

// release folds one group release into the online blame estimator.
// members are the released workers, arrivals their arrival times (same
// order, NaN where unknown) and release the clock time the group was
// released at. Each member waited release − arrival (clamped at 0); the
// member Attribute names critical is charged the seconds of the others'
// time it consumed. Every member's blame EWMA decays toward its per-group
// charge, so the scoreboard's "recent" column tracks the current straggler
// rather than run-cumulative history. The caller holds in.mu.
func (in *Instruments) release(members []int, arrivals []float64, release float64) {
	critical, induced := Attribute(arrivals)
	for i, w := range members {
		in.groupCount[w]++
		if wait := release - arrivals[i]; wait > 0 {
			in.groupWait[w] += wait
		}
		charge := 0.0
		if i == critical {
			charge = induced
			in.criticalN[w]++
			in.blame[w] += induced
		}
		in.blameEWMA[w] = float64(blameEWMADecay*in.blameEWMA[w]) + float64((1-blameEWMADecay)*charge)
	}
}

// AddComms folds a data-plane delta into the running total. A side call,
// not an event: the bytes and segments are the collective's OpStats, which
// no event carries. Nil-safe.
func (in *Instruments) AddComms(s CommStats) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.comms.Add(s)
	in.mu.Unlock()
}

// InstrumentsSnapshot is a consistent copy of every instrument, safe to
// render without holding the run's locks.
type InstrumentsSnapshot struct {
	Staleness        *Histogram
	BarrierWait      []float64
	MaxContactAge    int64
	SyncComponents   int64
	GroupsFormed     int64
	Interventions    int64
	Deferrals        int64
	Epoch            int64
	PolicyP          int64
	PolicyDeviations int64
	GroupWait        []float64
	Blame            []float64
	BlameEWMA        []float64
	CriticalN        []int64
	GroupCount       []int64
	Comms            CommStats
	QueueDepthSample float64 // ready-queue depth at the latest ready signal
}

// ScoreRow is one worker's line of the straggler scoreboard.
type ScoreRow struct {
	Rank             int
	Recent           float64 // blame EWMA: who is slow now
	Blame, Waited    float64 // cumulative seconds induced / spent waiting
	Critical, Groups int64
}

// Scoreboard returns one row per worker sorted by recent blame descending,
// ties broken by cumulative blame then rank, so the current straggler tops
// the board. Deterministic for a fixed snapshot; every renderer (the live
// text board, the postmortem bundle's CSV) shows this order.
func (s *InstrumentsSnapshot) Scoreboard() []ScoreRow {
	rows := make([]ScoreRow, len(s.Blame))
	for i := range rows {
		rows[i] = ScoreRow{Rank: i, Recent: s.BlameEWMA[i], Blame: s.Blame[i]}
		// The per-worker slices are sized together; a hand-built snapshot
		// may carry only the blame columns.
		if i < len(s.GroupWait) {
			rows[i].Waited = s.GroupWait[i]
		}
		if i < len(s.CriticalN) {
			rows[i].Critical = s.CriticalN[i]
		}
		if i < len(s.GroupCount) {
			rows[i].Groups = s.GroupCount[i]
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].Recent != rows[b].Recent {
			return rows[a].Recent > rows[b].Recent
		}
		if rows[a].Blame != rows[b].Blame {
			return rows[a].Blame > rows[b].Blame
		}
		return rows[a].Rank < rows[b].Rank
	})
	return rows
}

// Snapshot returns a deep copy of the current instrument state. Nil-safe
// (returns an empty snapshot).
func (in *Instruments) Snapshot() *InstrumentsSnapshot {
	if in == nil {
		return &InstrumentsSnapshot{Staleness: NewHistogram(1)}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	copyF := func(src []float64) []float64 {
		out := make([]float64, len(src))
		copy(out, src)
		return out
	}
	copyI := func(src []int64) []int64 {
		out := make([]int64, len(src))
		copy(out, src)
		return out
	}
	return &InstrumentsSnapshot{
		Staleness:      in.staleness.clone(),
		BarrierWait:    copyF(in.barrierWait),
		GroupWait:      copyF(in.groupWait),
		Blame:          copyF(in.blame),
		BlameEWMA:      copyF(in.blameEWMA),
		CriticalN:      copyI(in.criticalN),
		GroupCount:     copyI(in.groupCount),
		MaxContactAge:  in.maxContactAge,
		SyncComponents: in.syncComponents,
		GroupsFormed:   in.groupsFormed,
		Interventions:  in.interventions,
		Deferrals:      in.deferrals,
		Epoch:          in.epoch,

		PolicyP:          in.policyP,
		PolicyDeviations: in.policyDeviations,

		Comms:            in.comms,
		QueueDepthSample: in.queueDepth,
	}
}
