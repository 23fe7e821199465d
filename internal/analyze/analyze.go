package analyze

// The analysis pass proper. Three products from one merged timeline:
//
//  1. Phase partition — every worker's span events are swept into an
//     exclusive partition of its elapsed time. Span kinds overlap by
//     design (the sim's group-wait covers its ring phases; a live
//     collective span contains reduce-scatter, all-gather and backoff),
//     so where spans overlap the most specific phase wins, by fixed
//     precedence: compute > comm > retry-backoff > group-wait >
//     signal-wait. Uncovered time is "other". The partition is built
//     per (rank, iteration) bucket and closed with a residual, so the
//     phase columns sum to the bucket wall time exactly (within float
//     rounding, well inside the 1e-9 acceptance bound).
//
//  2. Group reconstruction + blame — each controller group-formed
//     instant plus its staleness membership records give the group's
//     members; each member's arrival is its last accepted ready instant
//     at or before formation. metrics.Attribute, the rule the online
//     scoreboard also applies, names the critical (last-arriving)
//     member and charges it the others' arrival gaps; the
//     formation-to-critical-arrival gap is controller "defer" time,
//     charged to nobody.
//
//  3. Critical path — the run is cut at group formations; the segment
//     ending at each formation is attributed to that group's critical
//     rank and decomposed by that rank's phase occupancy over the
//     segment. Summing gives "what the slowest-at-the-time worker was
//     doing" across the whole run — the offline scoreboard.

import (
	"fmt"
	"math"
	"sort"

	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// Phase is one slice of a worker's elapsed time. Order is precedence:
// when spans overlap, the lowest-valued phase claims the time.
type Phase int

const (
	PhaseCompute Phase = iota
	PhaseComm
	PhaseRetry
	PhaseGroupWait
	PhaseSignalWait
	PhaseOther
	NumPhase
)

var phaseNames = [NumPhase]string{
	"compute", "comm", "retry", "group-wait", "signal-wait", "other",
}

func (p Phase) String() string {
	if p >= 0 && p < NumPhase {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// phaseOf maps span kinds to phases; non-span and controller kinds
// return false.
func phaseOf(k trace.Kind) (Phase, bool) {
	switch k {
	case trace.KCompute:
		return PhaseCompute, true
	case trace.KReduceScatter, trace.KAllGather:
		return PhaseComm, true
	case trace.KRetryBackoff:
		return PhaseRetry, true
	case trace.KGroupWait, trace.KCollective, trace.KBootstrap:
		return PhaseGroupWait, true
	case trace.KSignalWait:
		return PhaseSignalWait, true
	}
	return 0, false
}

// IterStat is one worker-iteration bucket: the time between the first
// and last span the worker recorded for that iteration, partitioned
// into phases.
type IterStat struct {
	Rank   int
	Iter   int
	Start  float64
	End    float64
	Phases [NumPhase]float64
}

// Wall is the bucket's elapsed time; the Phases array sums to it.
func (s *IterStat) Wall() float64 { return s.End - s.Start }

// GroupStat is one reconstructed P-Reduce group.
type GroupStat struct {
	Seq      int64
	Formed   float64
	Iter     int // group iteration (max member iter)
	Members  []int
	Iters    []int     // per-member signal iteration
	Arrivals []float64 // per-member ready instant; NaN when unmatched
	Waits    []float64 // per-member formation − arrival; NaN when unmatched
	Critical int       // rank of the last-arriving member, -1 unknown
	Induced  float64   // Σ over non-critical members of (critical arrival − arrival)
	Defer    float64   // formation − critical arrival (controller-side)
}

// RankStat is one rank's ledger across the run.
type RankStat struct {
	Rank     int
	Groups   int     // groups the rank was a member of
	Critical int     // groups where the rank arrived last
	Blame    float64 // seconds of other ranks' time this rank consumed
	Wait     float64 // seconds this rank spent arrived-but-waiting
	Phases   [NumPhase]float64
	CritPath float64 // seconds of run critical path attributed to this rank
}

// CriticalPath is the run-level decomposition: segments between
// consecutive group formations, each attributed to the later group's
// critical rank and decomposed by that rank's phase occupancy.
type CriticalPath struct {
	Start, End   float64
	Phases       [NumPhase]float64
	Unattributed float64 // segments whose group had no known critical rank
}

// Report is the full analysis product.
type Report struct {
	Merged *Merged
	Iters  []IterStat  // sorted by (rank, iter)
	Groups []GroupStat // sorted by seq
	Ranks  []RankStat  // sorted by rank
	Crit   CriticalPath
	// Truncated counts membership records left out of Groups because their
	// group formed behind a wrapped ring's horizon (see Truncation).
	Truncated int
}

// partition sweeps spans into an exclusive phase decomposition of
// [start, end]; overlaps resolve to the lowest-valued phase, gaps to
// PhaseOther, and a final residual pins Σphases == end−start exactly.
func partition(spans []phaseSpan, start, end float64) [NumPhase]float64 {
	var out [NumPhase]float64
	if end <= start {
		return out
	}
	cuts := make([]float64, 0, 2*len(spans)+2)
	cuts = append(cuts, start, end)
	for _, sp := range spans {
		if sp.e <= start || sp.s >= end {
			continue
		}
		if sp.s > start {
			cuts = append(cuts, sp.s)
		}
		if sp.e < end {
			cuts = append(cuts, sp.e)
		}
	}
	sort.Float64s(cuts)
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		mid := a + float64((b-a)/2)
		best := PhaseOther
		for _, sp := range spans {
			if sp.s <= mid && mid < sp.e && sp.phase < best {
				best = sp.phase
			}
		}
		out[best] += b - a
	}
	// Close the partition: fold float drift into "other" so the
	// columns sum to the wall time exactly.
	sum := 0.0
	for p := Phase(0); p < PhaseOther; p++ {
		sum += out[p]
	}
	out[PhaseOther] = (end - start) - sum
	if out[PhaseOther] < 0 {
		out[PhaseOther] = 0
	}
	return out
}

type phaseSpan struct {
	phase Phase
	s, e  float64
}

// Analyze runs the full pass over a merged timeline.
func Analyze(m *Merged) (*Report, error) {
	if m == nil || len(m.Events) == 0 {
		return nil, fmt.Errorf("analyze: empty timeline")
	}
	r := &Report{Merged: m}
	r.Truncated, _ = Truncation(m)

	// --- per-(rank, iter) buckets and per-rank span lists ---
	type bucketKey struct {
		rank int32
		iter int32
	}
	buckets := map[bucketKey][]phaseSpan{}
	bounds := map[bucketKey][2]float64{}
	rankSpans := map[int32][]phaseSpan{}
	for _, ev := range m.Events {
		ph, ok := phaseOf(ev.Kind)
		if !ok || ev.Track < 0 {
			continue
		}
		sp := phaseSpan{ph, ev.TS, ev.TS + ev.Dur}
		k := bucketKey{ev.Track, ev.Iter}
		buckets[k] = append(buckets[k], sp)
		if b, ok := bounds[k]; ok {
			if sp.s < b[0] {
				b[0] = sp.s
			}
			if sp.e > b[1] {
				b[1] = sp.e
			}
			bounds[k] = b
		} else {
			bounds[k] = [2]float64{sp.s, sp.e}
		}
		rankSpans[ev.Track] = append(rankSpans[ev.Track], sp)
	}
	keys := make([]bucketKey, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].iter < keys[j].iter
	})
	rankStats := map[int]*RankStat{}
	rankStat := func(rank int) *RankStat {
		rs := rankStats[rank]
		if rs == nil {
			rs = &RankStat{Rank: rank}
			rankStats[rank] = rs
		}
		return rs
	}
	for _, k := range keys {
		b := bounds[k]
		st := IterStat{
			Rank: int(k.rank), Iter: int(k.iter),
			Start: b[0], End: b[1],
			Phases: partition(buckets[k], b[0], b[1]),
		}
		r.Iters = append(r.Iters, st)
		rs := rankStat(st.Rank)
		for p := Phase(0); p < NumPhase; p++ {
			rs.Phases[p] += st.Phases[p]
		}
	}

	// --- group reconstruction ---
	type formed struct {
		seq  int64
		ts   float64
		iter int32
		size int64
	}
	var forms []formed
	members := map[int64][]trace.Event{} // seq → KStaleness records, recording order
	readys := map[int32][]readyInstant{} // worker → accepted ready instants
	for _, ev := range m.Events {
		switch ev.Kind {
		case trace.KGroupFormed:
			forms = append(forms, formed{ev.A, ev.TS, ev.Iter, ev.B})
		case trace.KStaleness:
			members[ev.B] = append(members[ev.B], ev)
		case trace.KReady:
			readys[ev.Track] = append(readys[ev.Track], readyInstant{ev.Iter, ev.TS})
		}
	}
	sort.SliceStable(forms, func(i, j int) bool {
		if forms[i].ts != forms[j].ts {
			return forms[i].ts < forms[j].ts
		}
		return forms[i].seq < forms[j].seq
	})
	// arrival finds the last accepted ready of (worker, iter) at or
	// before the formation instant. Same-clock recording order
	// guarantees ready ≤ formed for the true match; offset-corrected
	// cross-rank stamps don't matter here because both events are
	// controller-side.
	arrival := func(worker, iter int32, formedTS float64) float64 {
		best := math.NaN()
		for _, ri := range readys[worker] {
			if ri.iter == iter && ri.ts <= formedTS {
				best = ri.ts
			}
		}
		return best
	}
	for _, f := range forms {
		g := GroupStat{Seq: f.seq, Formed: f.ts, Iter: int(f.iter), Critical: -1}
		for _, mev := range members[f.seq] {
			g.Members = append(g.Members, int(mev.Track))
			g.Iters = append(g.Iters, int(mev.Iter))
			a := arrival(mev.Track, mev.Iter, f.ts)
			g.Arrivals = append(g.Arrivals, a)
			if math.IsNaN(a) {
				g.Waits = append(g.Waits, math.NaN())
			} else {
				g.Waits = append(g.Waits, f.ts-a)
			}
		}
		if critIdx, induced := metrics.Attribute(g.Arrivals); critIdx >= 0 {
			g.Critical = g.Members[critIdx]
			g.Induced = induced
			g.Defer = g.Formed - g.Arrivals[critIdx]
		}
		r.Groups = append(r.Groups, g)
		for i, w := range g.Members {
			rs := rankStat(w)
			rs.Groups++
			if !math.IsNaN(g.Waits[i]) {
				rs.Wait += g.Waits[i]
			}
		}
		if g.Critical >= 0 {
			rs := rankStat(g.Critical)
			rs.Critical++
			rs.Blame += g.Induced
		}
	}

	// --- run critical path ---
	if len(forms) > 0 {
		for _, spans := range rankSpans {
			sort.SliceStable(spans, func(i, j int) bool { return spans[i].s < spans[j].s })
		}
		r.Crit.Start = m.Events[0].TS
		r.Crit.End = forms[len(forms)-1].ts
		prev := r.Crit.Start
		for i, f := range forms {
			if f.ts <= prev {
				continue
			}
			crit := r.Groups[i].Critical
			if crit < 0 {
				r.Crit.Unattributed += f.ts - prev
			} else {
				ph := partition(rankSpans[int32(crit)], prev, f.ts)
				for p := Phase(0); p < NumPhase; p++ {
					r.Crit.Phases[p] += ph[p]
				}
				rankStat(crit).CritPath += f.ts - prev
			}
			prev = f.ts
		}
	}

	ranks := make([]int, 0, len(rankStats))
	for rk := range rankStats {
		ranks = append(ranks, rk)
	}
	sort.Ints(ranks)
	for _, rk := range ranks {
		r.Ranks = append(r.Ranks, *rankStats[rk])
	}
	return r, nil
}
