package analyze

// Byte-reproducible report writers. Everything is emitted in fixed
// order with fixed 'f'-format float precision — no maps are iterated,
// no locale, no timestamps of the analysis itself — so the same input
// trace always produces identical bytes (pinned by the golden tests).

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"partialreduce/internal/trace"
)

// fsec formats seconds with fixed nanosecond precision.
func fsec(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 9, 64)
}

// fpct formats a ratio as a fixed-precision percentage.
func fpct(num, den float64) string {
	if den <= 0 {
		return "-"
	}
	return strconv.FormatFloat(100*num/den, 'f', 1, 64) + "%"
}

type table struct {
	rows [][]string
}

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) error {
	widths := []int(nil)
	for _, r := range t.rows {
		for i, c := range r {
			for len(widths) <= i {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range t.rows {
		var sb strings.Builder
		for i, c := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == 0 {
				// First column left-aligned, the rest right-aligned.
				sb.WriteString(c)
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			} else {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
				sb.WriteString(c)
			}
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteReport renders the human-readable analysis. topGroups bounds the
// per-group table (≤0 means 10).
func WriteReport(w io.Writer, r *Report, topGroups int) error {
	if topGroups <= 0 {
		topGroups = 10
	}
	ew := &errWriter{w: w}
	p := func(format string, args ...any) { ew.printf(format, args...) }

	p("P-Reduce trace analysis\n=======================\n")
	p("events:      %d\n", len(r.Merged.Events))
	rankList := make([]string, 0, len(r.Merged.Ranks))
	for _, rk := range r.Merged.Ranks {
		rankList = append(rankList, strconv.Itoa(rk))
	}
	if len(r.Merged.Ranks) == 1 && r.Merged.Ranks[0] < 0 {
		p("traces:      1 (single, unstamped)\n")
	} else {
		p("traces:      %d (ranks %s)\n", len(r.Merged.Ranks), strings.Join(rankList, ","))
	}
	p("host rank:   %d\n", r.Merged.HostRank)
	p("groups:      %d\n", len(r.Groups))
	p("iterations:  %d worker-iteration buckets\n", len(r.Iters))
	for _, ev := range r.Merged.Events {
		if ev.Kind == trace.KTruncated {
			p("truncated:   rank %d's ring dropped %d events before t=%s\n", ev.Origin, ev.A, fsec(ev.TS))
		}
	}
	if r.Truncated > 0 {
		p("truncated:   %d membership records reference groups behind a ring horizon\n", r.Truncated)
	}
	if len(r.Merged.Ranks) > 1 {
		p("\nClock offsets (host clock − rank clock)\n")
		t := &table{}
		t.row("rank", "offset_s", "pairs", "agree", "bound_width_s")
		for _, o := range r.Merged.Offsets {
			if o.Rank == r.Merged.HostRank {
				t.row(strconv.Itoa(o.Rank), "host", "-", "-", "-")
				continue
			}
			t.row(strconv.Itoa(o.Rank), fsec(o.Offset),
				strconv.Itoa(o.Pairs), strconv.Itoa(o.Agree), fsec(o.Hi-o.Lo))
		}
		if ew.err == nil {
			ew.err = t.write(w)
		}
	}

	p("\nPer-rank phase totals (seconds)\n")
	t := &table{}
	t.row("rank", "compute", "comm", "retry", "group-wait", "signal-wait", "other", "total", "waiting")
	for _, rs := range r.Ranks {
		total := 0.0
		for _, v := range rs.Phases {
			total += v
		}
		waiting := rs.Phases[PhaseGroupWait] + rs.Phases[PhaseSignalWait]
		t.row(strconv.Itoa(rs.Rank),
			fsec(rs.Phases[PhaseCompute]), fsec(rs.Phases[PhaseComm]),
			fsec(rs.Phases[PhaseRetry]), fsec(rs.Phases[PhaseGroupWait]),
			fsec(rs.Phases[PhaseSignalWait]), fsec(rs.Phases[PhaseOther]),
			fsec(total), fpct(waiting, total))
	}
	if ew.err == nil {
		ew.err = t.write(w)
	}

	p("\nBlame ledger (seconds of other ranks' time each rank consumed)\n")
	blame := append([]RankStat(nil), r.Ranks...)
	sort.SliceStable(blame, func(i, j int) bool {
		if blame[i].Blame != blame[j].Blame {
			return blame[i].Blame > blame[j].Blame
		}
		return blame[i].Rank < blame[j].Rank
	})
	totalBlame := 0.0
	for _, rs := range blame {
		totalBlame += rs.Blame
	}
	t = &table{}
	t.row("rank", "groups", "critical", "blame_s", "share", "waited_s", "critpath_s")
	for _, rs := range blame {
		t.row(strconv.Itoa(rs.Rank), strconv.Itoa(rs.Groups),
			strconv.Itoa(rs.Critical), fsec(rs.Blame), fpct(rs.Blame, totalBlame),
			fsec(rs.Wait), fsec(rs.CritPath))
	}
	if ew.err == nil {
		ew.err = t.write(w)
	}

	p("\nRun critical path (%s → %s, attributed to last-arriving ranks)\n",
		fsec(r.Crit.Start), fsec(r.Crit.End))
	t = &table{}
	t.row("compute", "comm", "retry", "group-wait", "signal-wait", "other", "unattributed")
	t.row(fsec(r.Crit.Phases[PhaseCompute]), fsec(r.Crit.Phases[PhaseComm]),
		fsec(r.Crit.Phases[PhaseRetry]), fsec(r.Crit.Phases[PhaseGroupWait]),
		fsec(r.Crit.Phases[PhaseSignalWait]), fsec(r.Crit.Phases[PhaseOther]),
		fsec(r.Crit.Unattributed))
	if ew.err == nil {
		ew.err = t.write(w)
	}

	p("\nTop groups by induced wait (top %d of %d)\n", topGroups, len(r.Groups))
	top := append([]GroupStat(nil), r.Groups...)
	sort.SliceStable(top, func(i, j int) bool {
		if top[i].Induced != top[j].Induced {
			return top[i].Induced > top[j].Induced
		}
		return top[i].Seq < top[j].Seq
	})
	if len(top) > topGroups {
		top = top[:topGroups]
	}
	t = &table{}
	t.row("seq", "formed_s", "iter", "size", "critical", "induced_s", "defer_s", "members")
	for _, g := range top {
		mem := make([]string, len(g.Members))
		for i, mrk := range g.Members {
			mem[i] = strconv.Itoa(mrk)
		}
		t.row(strconv.FormatInt(g.Seq, 10), fsec(g.Formed), strconv.Itoa(g.Iter),
			strconv.Itoa(len(g.Members)), strconv.Itoa(g.Critical),
			fsec(g.Induced), fsec(g.Defer), strings.Join(mem, ","))
	}
	if ew.err == nil {
		ew.err = t.write(w)
	}
	return ew.err
}

// WriteIterCSV emits the per-(rank, iteration) phase partition.
func WriteIterCSV(w io.Writer, r *Report) error {
	ew := &errWriter{w: w}
	ew.printf("rank,iter,start_s,end_s,wall_s,compute_s,comm_s,retry_s,group_wait_s,signal_wait_s,other_s\n")
	for _, it := range r.Iters {
		ew.printf("%d,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s\n",
			it.Rank, it.Iter, fsec(it.Start), fsec(it.End), fsec(it.Wall()),
			fsec(it.Phases[PhaseCompute]), fsec(it.Phases[PhaseComm]),
			fsec(it.Phases[PhaseRetry]), fsec(it.Phases[PhaseGroupWait]),
			fsec(it.Phases[PhaseSignalWait]), fsec(it.Phases[PhaseOther]))
	}
	return ew.err
}

// WriteGroupCSV emits the reconstructed groups with arrival detail.
func WriteGroupCSV(w io.Writer, r *Report) error {
	ew := &errWriter{w: w}
	ew.printf("seq,formed_s,iter,size,critical,induced_s,defer_s,members,waits_s\n")
	for _, g := range r.Groups {
		mem := make([]string, len(g.Members))
		waits := make([]string, len(g.Waits))
		for i := range g.Members {
			mem[i] = strconv.Itoa(g.Members[i])
			waits[i] = fsec(g.Waits[i])
		}
		ew.printf("%d,%s,%d,%d,%d,%s,%s,%s,%s\n",
			g.Seq, fsec(g.Formed), g.Iter, len(g.Members), g.Critical,
			fsec(g.Induced), fsec(g.Defer),
			strings.Join(mem, ";"), strings.Join(waits, ";"))
	}
	return ew.err
}

// WriteBlameCSV emits the per-rank ledger sorted by blame.
func WriteBlameCSV(w io.Writer, r *Report) error {
	ew := &errWriter{w: w}
	blame := append([]RankStat(nil), r.Ranks...)
	sort.SliceStable(blame, func(i, j int) bool {
		if blame[i].Blame != blame[j].Blame {
			return blame[i].Blame > blame[j].Blame
		}
		return blame[i].Rank < blame[j].Rank
	})
	ew.printf("rank,groups,critical,blame_s,waited_s,critpath_s,compute_s,comm_s,retry_s,group_wait_s,signal_wait_s,other_s\n")
	for _, rs := range blame {
		ew.printf("%d,%d,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s\n",
			rs.Rank, rs.Groups, rs.Critical, fsec(rs.Blame), fsec(rs.Wait),
			fsec(rs.CritPath),
			fsec(rs.Phases[PhaseCompute]), fsec(rs.Phases[PhaseComm]),
			fsec(rs.Phases[PhaseRetry]), fsec(rs.Phases[PhaseGroupWait]),
			fsec(rs.Phases[PhaseSignalWait]), fsec(rs.Phases[PhaseOther]))
	}
	return ew.err
}

// errWriter mirrors the trace package's stick-on-first-error writer.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
