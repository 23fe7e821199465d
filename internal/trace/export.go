package trace

// Exporters. Both formats are written with a hand-rolled serializer in a
// fixed key order with fixed float formatting, so a deterministic event
// stream (same-seed simulator replay) produces byte-identical files —
// the property the seed-replay trace tests pin.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// WriteFile exports the tracer's retained events to path: streaming JSONL
// when the path ends in ".jsonl", Chrome trace-event JSON otherwise.
func WriteFile(path string, t *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = WriteJSONL(f, t.Events(), t.Dropped())
	} else {
		err = WriteChrome(f, t.Events())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// usec converts clock seconds to the microsecond unit of the Chrome
// trace-event format, formatted with fixed nanosecond precision.
func usec(sec float64) string {
	return strconv.FormatFloat(sec*1e6, 'f', 3, 64)
}

// chromePid maps an event's recording process to a Chrome pid: events
// with a stamped origin rank render as that pid (a merged multi-rank
// timeline groups per process in Perfetto), unstamped events as pid 0.
func chromePid(ev Event) int {
	if ev.Origin >= 0 {
		return int(ev.Origin)
	}
	return 0
}

// chromeTid maps an event's track to a Chrome tid: controller events on
// tid 0, worker w on tid w+1, so the controller track sorts on top.
func chromeTid(ev Event) int {
	if ev.Track == ControllerTrack {
		return 0
	}
	return int(ev.Track) + 1
}

// WriteChrome renders events as Chrome trace-event JSON (the
// chrome://tracing / Perfetto "JSON object format"): spans become "X"
// complete events, instants "i" events, and thread-name metadata names
// every (process, track) pair present — one track per worker plus one
// for the controller. Events recorded with a stamped origin rank land in
// that rank's process group (see chromePid), so a merged multi-rank
// timeline keeps one process lane per rank.
func WriteChrome(w io.Writer, events []Event) error {
	bw := &errWriter{w: w}
	bw.str(`{"traceEvents":[`)

	// Thread-name metadata for every (pid, tid) pair present, in
	// deterministic ascending order.
	type lane struct{ pid, tid int }
	seen := map[lane]bool{}
	lanes := []lane(nil)
	for _, ev := range events {
		l := lane{chromePid(ev), chromeTid(ev)}
		if !seen[l] {
			seen[l] = true
			lanes = append(lanes, l)
		}
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].pid != lanes[j].pid {
			return lanes[i].pid < lanes[j].pid
		}
		return lanes[i].tid < lanes[j].tid
	})
	first := true
	for _, l := range lanes {
		if !first {
			bw.str(",")
		}
		first = false
		name := "controller"
		if l.tid > 0 {
			name = fmt.Sprintf("worker %d", l.tid-1)
		}
		bw.str(`{"ph":"M","pid":`)
		bw.str(strconv.Itoa(l.pid))
		bw.str(`,"tid":`)
		bw.str(strconv.Itoa(l.tid))
		bw.str(`,"name":"thread_name","args":{"name":"`)
		bw.str(name)
		bw.str(`"}}`)
	}

	for _, ev := range events {
		if !first {
			bw.str(",")
		}
		first = false
		pid, tid := chromePid(ev), chromeTid(ev)
		bw.str(`{"name":"`)
		bw.str(ev.Kind.String())
		if ev.Dur > 0 || isSpanKind(ev.Kind) {
			bw.str(`","ph":"X","pid":`)
			bw.str(strconv.Itoa(pid))
			bw.str(`,"tid":`)
			bw.str(strconv.Itoa(tid))
			bw.str(`,"ts":`)
			bw.str(usec(ev.TS))
			bw.str(`,"dur":`)
			bw.str(usec(ev.Dur))
		} else {
			bw.str(`","ph":"i","s":"t","pid":`)
			bw.str(strconv.Itoa(pid))
			bw.str(`,"tid":`)
			bw.str(strconv.Itoa(tid))
			bw.str(`,"ts":`)
			bw.str(usec(ev.TS))
		}
		bw.str(`,"args":{"iter":`)
		bw.str(strconv.FormatInt(int64(ev.Iter), 10))
		bw.str(`,"a":`)
		bw.str(strconv.FormatInt(ev.A, 10))
		bw.str(`,"b":`)
		bw.str(strconv.FormatInt(ev.B, 10))
		bw.str(`}}`)
	}
	bw.str("]}\n")
	return bw.err
}

// isSpanKind reports whether k is a span kind (rendered as a complete
// event even at zero duration, so instantaneous spans keep their track
// semantics).
func isSpanKind(k Kind) bool {
	switch k {
	case KCompute, KSignalWait, KGroupWait, KCollective, KReduceScatter, KAllGather, KRetryBackoff:
		return true
	}
	return false
}

// WriteJSONL renders one JSON object per line per event:
// {"ts":…,"dur":…,"kind":"…","track":…,"iter":…,"rank":…,"a":…,"b":…}.
// Timestamps are clock seconds; rank is the recording process's origin
// rank (-1 when never stamped), so a multi-rank trace self-identifies
// without relying on the per-rank file name. The format is fixed-order
// and deterministic, suitable for jq/awk streaming analysis and for the
// analyzer's ParseJSONL.
//
// dropped is the recording tracer's Dropped() (read after Events(), so it
// never understates what the events are missing). A wrapped ring is the
// flight recorder's normal state, not damage: when dropped > 0 the first
// line is a KTruncated header carrying the count and the oldest retained
// event's timestamp. An unwrapped trace is written exactly as before.
func WriteJSONL(w io.Writer, events []Event, dropped uint64) error {
	bw := &errWriter{w: w}
	if dropped > 0 && len(events) > 0 {
		bw.jsonl(Event{TS: events[0].TS, Kind: KTruncated, Track: ControllerTrack, Iter: -1,
			Origin: events[0].Origin, A: int64(dropped)})
	}
	for _, ev := range events {
		bw.jsonl(ev)
	}
	return bw.err
}

func (bw *errWriter) jsonl(ev Event) {
	bw.str(`{"ts":`)
	bw.str(strconv.FormatFloat(ev.TS, 'f', 9, 64))
	bw.str(`,"dur":`)
	bw.str(strconv.FormatFloat(ev.Dur, 'f', 9, 64))
	bw.str(`,"kind":"`)
	bw.str(ev.Kind.String())
	bw.str(`","track":`)
	bw.str(strconv.FormatInt(int64(ev.Track), 10))
	bw.str(`,"iter":`)
	bw.str(strconv.FormatInt(int64(ev.Iter), 10))
	bw.str(`,"rank":`)
	bw.str(strconv.FormatInt(int64(ev.Origin), 10))
	bw.str(`,"a":`)
	bw.str(strconv.FormatInt(ev.A, 10))
	bw.str(`,"b":`)
	bw.str(strconv.FormatInt(ev.B, 10))
	bw.str("}\n")
}

// errWriter sticks on the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

// ValidateChrome is the tiny schema check `make trace-smoke` and the
// trace tests run over an exported Chrome trace: the document must be a
// {"traceEvents": […]} object whose every event has a name, a known
// phase ("M", "X", or "i"), integer pid/tid, a non-negative ts (and a
// non-negative dur for "X" events). It returns the number of non-metadata
// events.
func ValidateChrome(data []byte) (int, error) {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("trace: missing traceEvents array")
	}
	n := 0
	for i, ev := range doc.TraceEvents {
		var ph, name string
		if err := unmarshalField(ev, "ph", &ph); err != nil {
			return 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if err := unmarshalField(ev, "name", &name); err != nil {
			return 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if name == "" {
			return 0, fmt.Errorf("trace: event %d: empty name", i)
		}
		var pid, tid float64
		if err := unmarshalField(ev, "pid", &pid); err != nil {
			return 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if err := unmarshalField(ev, "tid", &tid); err != nil {
			return 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		switch ph {
		case "M":
			continue
		case "X":
			var dur float64
			if err := unmarshalField(ev, "dur", &dur); err != nil {
				return 0, fmt.Errorf("trace: event %d: %w", i, err)
			}
			if dur < 0 {
				return 0, fmt.Errorf("trace: event %d: negative dur %v", i, dur)
			}
		case "i":
		default:
			return 0, fmt.Errorf("trace: event %d: unknown phase %q", i, ph)
		}
		var ts float64
		if err := unmarshalField(ev, "ts", &ts); err != nil {
			return 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if ts < 0 {
			return 0, fmt.Errorf("trace: event %d: negative ts %v", i, ts)
		}
		n++
	}
	return n, nil
}

func unmarshalField(ev map[string]json.RawMessage, key string, dst any) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %q", key)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("bad %q: %w", key, err)
	}
	return nil
}
