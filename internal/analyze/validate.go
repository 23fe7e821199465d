package analyze

// ValidateMerged is the structural check preduce-analyze -validate runs
// over a merged multi-rank timeline (and trace_smoke.sh over every live run):
// offset correction must have produced a globally ordered stream whose
// cross-rank causal pairs still make sense.

import (
	"fmt"
	"math"

	"partialreduce/internal/trace"
)

// ValidateMerged checks a merged timeline:
//
//   - events sorted by timestamp, all spans with finite, non-negative
//     bounds (no orphan span ends — the complete-event format can only
//     produce one if a duration went negative or non-finite);
//   - same-kind spans on one (origin, track) lane never overlap by more
//     than slack (a lane is sequential by construction; gross overlap
//     means a wrong clock offset or corrupt file);
//   - every staleness membership record references a formed group
//     (no orphan membership) — unless the group formed behind its recording
//     rank's ring horizon (see Truncation), which is a stated condition of
//     an always-on ring, not corruption;
//   - after offset correction, every matched controller ready instant
//     falls inside its worker's signal-wait span ± slack.
//
// slack absorbs residual clock error; ≤0 defaults to 5ms. Returns the
// event count.
func ValidateMerged(m *Merged, slack float64) (int, error) {
	if m == nil || len(m.Events) == 0 {
		return 0, fmt.Errorf("analyze: empty timeline")
	}
	if slack <= 0 {
		slack = 5e-3
	}
	prev := math.Inf(-1)
	type lane struct {
		origin int32
		track  int32
		kind   trace.Kind
	}
	laneEnd := map[lane]float64{}
	worstOverlap := 0.0
	for i, ev := range m.Events {
		if math.IsNaN(ev.TS) || math.IsInf(ev.TS, 0) || math.IsNaN(ev.Dur) || math.IsInf(ev.Dur, 0) {
			return 0, fmt.Errorf("analyze: event %d: non-finite timestamp", i)
		}
		if ev.Dur < 0 {
			return 0, fmt.Errorf("analyze: event %d: negative duration %v (orphan span end)", i, ev.Dur)
		}
		if ev.TS < prev {
			return 0, fmt.Errorf("analyze: event %d: timestamps not monotone after offset correction (%.9f < %.9f)", i, ev.TS, prev)
		}
		prev = ev.TS
		if ev.Dur > 0 {
			l := lane{ev.Origin, ev.Track, ev.Kind}
			if end, ok := laneEnd[l]; ok && end-ev.TS > worstOverlap {
				worstOverlap = end - ev.TS
			}
			if e := ev.TS + ev.Dur; e > laneEnd[l] {
				laneEnd[l] = e
			}
		}
	}
	if worstOverlap > slack {
		return 0, fmt.Errorf("analyze: same-kind spans overlap by %.6fs on one lane (> %.6fs slack): clock offsets look wrong", worstOverlap, slack)
	}
	if _, i := Truncation(m); i >= 0 {
		return 0, fmt.Errorf("analyze: event %d: staleness record references unknown group seq %d", i, m.Events[i].B)
	}
	// Causal check: matched ready instants inside signal-wait spans.
	if len(m.Ranks) > 1 {
		hv := indexHost(hostEvents(m))
		for _, rk := range m.Ranks {
			if rk == m.HostRank {
				continue
			}
			bad, total := 0, 0
			type span struct{ s, e float64 }
			waits := map[int32][]span{}
			for _, ev := range m.Events {
				if ev.Kind == trace.KSignalWait && ev.Track == int32(rk) && ev.Origin == int32(rk) {
					waits[ev.Iter] = append(waits[ev.Iter], span{ev.TS, ev.TS + ev.Dur})
				}
			}
			for iter, ws := range waits {
				rs := hv.readys[int32(rk)]
				var stamps []float64
				for _, ri := range rs {
					if ri.iter == iter {
						stamps = append(stamps, ri.ts)
					}
				}
				n := len(ws)
				if len(stamps) < n {
					n = len(stamps)
				}
				for k := 0; k < n; k++ {
					total++
					if stamps[k] < ws[k].s-slack || stamps[k] > ws[k].e+slack {
						bad++
					}
				}
			}
			// A stray mismatch from re-signals is tolerable; wholesale
			// misalignment is not.
			if total > 0 && bad*10 > total {
				return 0, fmt.Errorf("analyze: rank %d: %d/%d ready instants fall outside their signal-wait spans after offset correction", rk, bad, total)
			}
		}
	}
	return len(m.Events), nil
}

// Truncation sorts the membership records whose group-formed instant is not
// in the timeline. A rank whose ring wrapped says so with a KTruncated header
// (trace.WriteJSONL), and a tracer records a group's formation before its
// membership records, so a record that precedes every retained formation of
// its own rank refers behind that rank's horizon: truncated counts those.
// orphan is the index of the first dangling record inside a retained window
// — on a rank that dropped nothing, or after a formation its rank still
// holds — which no ring wrap explains; -1 when there is none.
func Truncation(m *Merged) (truncated, orphan int) {
	seqs := map[int64]bool{}
	wrapped := map[int32]bool{}
	for _, ev := range m.Events {
		switch ev.Kind {
		case trace.KGroupFormed:
			seqs[ev.A] = true
		case trace.KTruncated:
			wrapped[ev.Origin] = ev.A > 0
		}
	}
	for i, ev := range m.Events {
		switch {
		case ev.Kind == trace.KGroupFormed:
			wrapped[ev.Origin] = false // the retained window starts here at the latest
		case ev.Kind == trace.KStaleness && !seqs[ev.B]:
			if !wrapped[ev.Origin] {
				return truncated, i
			}
			truncated++
		}
	}
	return truncated, -1
}

// hostEvents extracts the host rank's events from a merged timeline.
func hostEvents(m *Merged) []trace.Event {
	var out []trace.Event
	for _, ev := range m.Events {
		if int(ev.Origin) == m.HostRank || (m.HostRank < 0 && ev.Origin < 0) {
			out = append(out, ev)
		}
	}
	return out
}
