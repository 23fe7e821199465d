package analyze

// Multi-rank trace merge. Each live process records with its own wall
// clock, so before per-rank files can share a timeline every non-host
// rank needs a clock-offset estimate. The estimator uses matched event
// pairs that bracket a controller-side instant inside a worker-side
// span:
//
//   - a worker's signal-wait span [s, e] (worker clock) covers the
//     controller's ready instant h (host clock) for the same
//     (worker, iter): the round trip send→accept→reply gives
//     off ∈ [h − e, h − s] where off is host−worker;
//   - when the pairing is unambiguous, the group-formed instant f of
//     the group that released the signal tightens the lower bound to
//     f − e (the formation also happened inside the wait).
//
// Re-signals after aborts, bootstrap diversions (a ready served as a
// join donor never reaches the controller) and stale-epoch rejections
// can desynchronize the two event sequences, so instead of intersecting
// all intervals the estimator votes: it picks the point covered by the
// most intervals (max-coverage sweep, deterministic tie-break toward
// the earliest such region) and takes the midpoint of that region.
// Mismatched pairs land in the minority and are outvoted.

import (
	"fmt"
	"sort"

	"partialreduce/internal/trace"
)

// RankOffset is one rank's clock-offset estimate and its provenance.
type RankOffset struct {
	Rank   int
	Offset float64 // host − rank clock, seconds (0 for the host)
	Pairs  int     // matched intervals that voted
	Agree  int     // intervals covering the chosen point
	Lo, Hi float64 // the chosen max-coverage region
}

// Merged is a set of rank traces on one aligned timeline.
type Merged struct {
	// Events holds every input event with non-host timestamps shifted
	// by the rank's offset, sorted by timestamp (stable: equal-stamp
	// events keep per-rank recording order, ranks in ascending order).
	Events []trace.Event
	// Ranks lists the input ranks ascending; -1 alone means a single
	// unstamped trace (e.g. simulator export).
	Ranks []int
	// HostRank is the rank whose process hosted the controller (its
	// trace carries the ready/group-formed instants); -1 in
	// single-trace mode.
	HostRank int
	// Offsets holds one entry per rank in Ranks order.
	Offsets []RankOffset
}

// Offset returns the clock offset applied to rank's events.
func (m *Merged) Offset(rank int) float64 {
	for _, o := range m.Offsets {
		if o.Rank == rank {
			return o.Offset
		}
	}
	return 0
}

// interval is one candidate offset range [lo, hi] from a matched pair.
type interval struct{ lo, hi float64 }

// voteOffset picks the point covered by the most intervals. Sweep with
// starts ordered before ends at equal coordinates, so touching
// intervals count as overlapping; the first maximal region wins.
func voteOffset(ivs []interval) (off float64, agree int, lo, hi float64) {
	type edge struct {
		x     float64
		delta int // +1 start, -1 end
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		edges = append(edges, edge{iv.lo, +1}, edge{iv.hi, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].x != edges[j].x {
			return edges[i].x < edges[j].x
		}
		return edges[i].delta > edges[j].delta
	})
	depth, best := 0, 0
	for i, e := range edges {
		depth += e.delta
		if depth > best {
			best = depth
			lo = e.x
			// The region extends to the next edge coordinate.
			if i+1 < len(edges) {
				hi = edges[i+1].x
			} else {
				hi = e.x
			}
		}
	}
	return (lo + hi) / 2, best, lo, hi
}

// hostView indexes the controller-side instants of the host trace.
type hostView struct {
	// readys[worker] lists (iter, ts) of accepted ready signals in
	// recording order.
	readys map[int32][]readyInstant
	// formedBySeq maps group seq → formation timestamp.
	formedBySeq map[int64]float64
	// memberSeqs[worker][iter] lists the seqs of groups that include
	// (worker, iter), from KStaleness membership records.
	memberSeqs map[int32]map[int32][]int64
}

type readyInstant struct {
	iter int32
	ts   float64
}

func indexHost(events []trace.Event) hostView {
	hv := hostView{
		readys:      map[int32][]readyInstant{},
		formedBySeq: map[int64]float64{},
		memberSeqs:  map[int32]map[int32][]int64{},
	}
	for _, ev := range events {
		switch ev.Kind {
		case trace.KReady:
			hv.readys[ev.Track] = append(hv.readys[ev.Track], readyInstant{ev.Iter, ev.TS})
		case trace.KGroupFormed:
			hv.formedBySeq[ev.A] = ev.TS
		case trace.KStaleness:
			m := hv.memberSeqs[ev.Track]
			if m == nil {
				m = map[int32][]int64{}
				hv.memberSeqs[ev.Track] = m
			}
			m[ev.Iter] = append(m[ev.Iter], ev.B)
		}
	}
	return hv
}

// offsetIntervals builds the candidate intervals for one non-host rank
// from its signal-wait spans matched against the host's ready instants
// by (worker, iter) occurrence index.
func offsetIntervals(hv hostView, rank int, events []trace.Event) []interval {
	type span struct{ s, e float64 }
	waits := map[int32][]span{} // iter → spans, recording order
	for _, ev := range events {
		if ev.Kind == trace.KSignalWait && ev.Track == int32(rank) {
			waits[ev.Iter] = append(waits[ev.Iter], span{ev.TS, ev.TS + ev.Dur})
		}
	}
	readys := map[int32][]float64{} // iter → host ready stamps, recording order
	for _, ri := range hv.readys[int32(rank)] {
		readys[ri.iter] = append(readys[ri.iter], ri.ts)
	}
	var ivs []interval
	for iter, ws := range waits {
		rs := readys[iter]
		n := len(ws)
		if len(rs) < n {
			n = len(rs)
		}
		for k := 0; k < n; k++ {
			lo, hi := rs[k]-ws[k].e, rs[k]-ws[k].s
			// Unambiguous pairing (one wait, one ready, one group):
			// the formation instant also sits inside the wait span,
			// tightening the lower bound.
			if len(ws) == 1 && len(rs) == 1 {
				if seqs := hv.memberSeqs[int32(rank)][iter]; len(seqs) == 1 {
					if f, ok := hv.formedBySeq[seqs[0]]; ok && f-ws[k].e > lo {
						lo = f - ws[k].e
					}
				}
			}
			if lo <= hi {
				ivs = append(ivs, interval{lo, hi})
			}
		}
	}
	// Deterministic vote input regardless of map iteration order.
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].hi < ivs[j].hi
	})
	return ivs
}

// Merge aligns the given rank traces onto one timeline. A single trace
// passes through unshifted (offset estimation needs nothing); multiple
// traces require distinct non-negative ranks and exactly one host trace
// — the one carrying the controller's ready instants.
func Merge(tracks []RankTrace) (*Merged, error) {
	if len(tracks) == 0 {
		return nil, fmt.Errorf("analyze: no traces to merge")
	}
	if len(tracks) == 1 {
		t := tracks[0]
		m := &Merged{
			Events:   append([]trace.Event(nil), t.Events...),
			Ranks:    []int{t.Rank},
			HostRank: -1,
			Offsets:  []RankOffset{{Rank: t.Rank}},
		}
		if hasController(t.Events) {
			m.HostRank = t.Rank
		}
		sortEvents(m.Events)
		return m, nil
	}

	sorted := append([]RankTrace(nil), tracks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rank < sorted[j].Rank })
	seen := map[int]bool{}
	host := -1
	for _, t := range sorted {
		if t.Rank < 0 {
			return nil, fmt.Errorf("analyze: trace %q has no rank (stamp its events with SetOrigin)", t.Path)
		}
		if seen[t.Rank] {
			return nil, fmt.Errorf("analyze: duplicate rank %d", t.Rank)
		}
		seen[t.Rank] = true
		if hasController(t.Events) {
			if host >= 0 {
				return nil, fmt.Errorf("analyze: controller events in both rank %d and rank %d traces", host, t.Rank)
			}
			host = t.Rank
		}
	}
	if host < 0 {
		return nil, fmt.Errorf("analyze: no trace carries controller ready events; cannot estimate clock offsets")
	}

	var hv hostView
	for _, t := range sorted {
		if t.Rank == host {
			hv = indexHost(t.Events)
		}
	}

	m := &Merged{HostRank: host}
	for _, t := range sorted {
		off := RankOffset{Rank: t.Rank}
		if t.Rank != host {
			ivs := offsetIntervals(hv, t.Rank, t.Events)
			off.Pairs = len(ivs)
			if len(ivs) == 0 {
				return nil, fmt.Errorf("analyze: rank %d: no matched signal/ready pairs against host rank %d", t.Rank, host)
			}
			off.Offset, off.Agree, off.Lo, off.Hi = voteOffset(ivs)
		}
		m.Ranks = append(m.Ranks, t.Rank)
		m.Offsets = append(m.Offsets, off)
		for _, ev := range t.Events {
			ev.TS += off.Offset
			if ev.Origin < 0 {
				ev.Origin = int32(t.Rank)
			}
			m.Events = append(m.Events, ev)
		}
	}
	sortEvents(m.Events)
	return m, nil
}

// hasController reports whether the event stream carries controller
// ready instants — the signature of the process hosting the controller.
func hasController(events []trace.Event) bool {
	for _, ev := range events {
		if ev.Kind == trace.KReady {
			return true
		}
	}
	return false
}

// sortEvents orders by timestamp, stable so equal-stamp events (ubiquitous
// under the simulator's virtual clock) keep their recording order.
func sortEvents(events []trace.Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
}
