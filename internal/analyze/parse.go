// Package analyze is the deterministic trace-analysis engine behind
// cmd/preduce-analyze: it parses the JSONL event logs the trace package
// exports (as files, or as the trace ring of a postmortem bundle), merges
// per-rank traces from multi-process live runs onto one aligned timeline
// (estimating each rank's clock offset from matched signal/ready and
// group-formed event pairs), partitions every worker iteration into
// phases (compute, communication, retry backoff, group wait, signal
// wait), reconstructs each P-Reduce group's arrival order, and attributes
// blocked time to the rank that caused it by metrics.Attribute — the rule
// the live blame instruments apply too.
//
// Everything is deterministic: the same input bytes produce the same
// Report, and the report writers use fixed ordering and fixed float
// formatting, so analyzer output is byte-reproducible (the property the
// golden tests pin).
package analyze

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"partialreduce/internal/health"
	"partialreduce/internal/trace"
)

// RankTrace is one recording process's event stream: Rank identifies the
// process (-1 when its events carry no rank stamp — a simulator trace),
// Events its parsed events in file order.
type RankTrace struct {
	Rank   int
	Path   string
	Events []trace.Event
}

// jsonlEvent mirrors one WriteJSONL line. Rank is a pointer so files
// written before the rank field existed parse as "unstamped".
type jsonlEvent struct {
	TS    float64 `json:"ts"`
	Dur   float64 `json:"dur"`
	Kind  string  `json:"kind"`
	Track int32   `json:"track"`
	Iter  int32   `json:"iter"`
	Rank  *int32  `json:"rank"`
	A     int64   `json:"a"`
	B     int64   `json:"b"`
}

// ParseJSONL parses a JSONL event log (the WriteJSONL format) back into
// events. Blank lines are ignored; an unknown kind name or malformed
// line is an error (the validator depends on strictness here).
func ParseJSONL(r io.Reader) ([]trace.Event, error) {
	var events []trace.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal([]byte(text), &je); err != nil {
			return nil, fmt.Errorf("analyze: line %d: %w", line, err)
		}
		kind, ok := trace.KindByName(je.Kind)
		if !ok {
			return nil, fmt.Errorf("analyze: line %d: unknown event kind %q", line, je.Kind)
		}
		if je.Dur < 0 {
			return nil, fmt.Errorf("analyze: line %d: negative duration %v", line, je.Dur)
		}
		origin := trace.NoOrigin
		if je.Rank != nil {
			origin = *je.Rank
		}
		events = append(events, trace.Event{
			TS: je.TS, Dur: je.Dur, Kind: kind,
			Track: je.Track, Iter: je.Iter, Origin: origin,
			A: je.A, B: je.B,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	return events, nil
}

// ReadTraceFile parses one JSONL trace file into a RankTrace.
func ReadTraceFile(path string) (RankTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return RankTrace{}, fmt.Errorf("analyze: %w", err)
	}
	defer f.Close()
	events, err := ParseJSONL(f)
	if err != nil {
		return RankTrace{}, fmt.Errorf("analyze: %s: %w", path, err)
	}
	return rankTrace(path, events), nil
}

// ReadBundle reads one postmortem bundle directory: its manifest, its raw
// parts, and its trace ring as a RankTrace. health.ReadBundle checks every
// part against the manifest first — rendering a flipped byte as if it were
// genuine is worse than no render — so a corrupted bundle fails naming the
// bad part.
func ReadBundle(dir string) (*health.Manifest, map[string][]byte, RankTrace, error) {
	man, parts, err := health.ReadBundle(dir)
	if err != nil {
		return nil, nil, RankTrace{}, fmt.Errorf("analyze: %s: %w", dir, err)
	}
	events, err := ParseJSONL(bytes.NewReader(parts[health.PartTrace]))
	if err != nil {
		return nil, nil, RankTrace{}, fmt.Errorf("analyze: %s: %s: %w", dir, health.PartTrace, err)
	}
	return man, parts, rankTrace(dir, events), nil
}

// rankTrace names the process that recorded events read from path: the
// rank its events are stamped with, -1 when they are unstamped (a
// simulator trace: single-trace mode).
func rankTrace(path string, events []trace.Event) RankTrace {
	rank := -1
	for _, ev := range events {
		if ev.Origin >= 0 {
			rank = int(ev.Origin)
			break
		}
	}
	return RankTrace{Rank: rank, Path: path, Events: events}
}
