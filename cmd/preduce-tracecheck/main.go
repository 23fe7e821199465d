// Command preduce-tracecheck validates exported traces.
//
// Chrome trace-event JSON files (.json) are checked against the schema
// the repo's exporters guarantee (see trace.ValidateChrome): a
// {"traceEvents": […]} document whose events carry a name, a known
// phase, integer pid/tid, and non-negative timestamps/durations.
//
// JSONL event logs (.jsonl) are parsed strictly (every line must be a
// known event), then all .jsonl arguments are merged onto one aligned
// timeline — estimating per-rank clock offsets when they come from
// different ranks — and the merged output is structurally validated
// (see analyze.ValidateMerged): monotone timestamps after offset
// correction, no orphan span ends, no orphan group membership inside the
// window each rank's ring retained (references behind a wrapped ring's
// horizon are reported as truncated), and matched ready instants inside
// their signal-wait spans.
//
// It prints per-file event counts on success and exits non-zero on any
// violation — `make trace-smoke` runs it over the simulator trace, each
// live rank's trace, and the merged multi-rank timeline.
//
// Usage:
//
//	preduce-tracecheck trace.json [more.json ...] [run.r0.jsonl run.r1.jsonl ...]
package main

import (
	"fmt"
	"os"
	"strings"

	"partialreduce/internal/analyze"
	"partialreduce/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: preduce-tracecheck <trace.json|trace.jsonl> [...]")
		os.Exit(2)
	}
	bad := false
	var jsonl []analyze.RankTrace
	for _, path := range os.Args[1:] {
		if strings.HasSuffix(path, ".jsonl") {
			t, err := analyze.ReadTraceFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: INVALID: %v\n", path, err)
				bad = true
				continue
			}
			fmt.Printf("%s: ok (%d events, rank %d)\n", path, len(t.Events), t.Rank)
			jsonl = append(jsonl, t)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			bad = true
			continue
		}
		n, err := trace.ValidateChrome(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: INVALID: %v\n", path, err)
			bad = true
			continue
		}
		fmt.Printf("%s: ok (%d events)\n", path, n)
	}
	if len(jsonl) > 0 && !bad {
		m, err := analyze.Merge(jsonl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "merge: INVALID: %v\n", err)
			os.Exit(1)
		}
		n, err := analyze.ValidateMerged(m, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "merged timeline: INVALID: %v\n", err)
			os.Exit(1)
		}
		if refs, _ := analyze.Truncation(m); refs > 0 {
			fmt.Printf("merged: %d membership records reference groups behind a ring horizon (truncated, not invalid)\n", refs)
		}
		if len(jsonl) > 1 {
			offs := make([]string, 0, len(m.Offsets))
			for _, o := range m.Offsets {
				offs = append(offs, fmt.Sprintf("r%d:%+.6fs", o.Rank, o.Offset))
			}
			fmt.Printf("merged: ok (%d events, %d ranks, host %d, offsets %s)\n",
				n, len(m.Ranks), m.HostRank, strings.Join(offs, " "))
		} else {
			fmt.Printf("merged: ok (%d events, single trace)\n", n)
		}
	}
	if bad {
		os.Exit(1)
	}
}
