// Package trace is the repo's low-overhead event/span recorder: a
// size-capped, pre-allocated ring buffer of fixed-size events behind a
// mutex, with a pluggable clock so the simulator records virtual-clock
// traces and the live runtime records wall-clock traces through the same
// API. A nil *Tracer is the disabled recorder — every method is
// nil-receiver-safe and returns immediately, so instrumented hot paths
// stay zero-allocation and branch-predictable when tracing is off (the
// data plane's allocgate keeps holding).
//
// The paper's argument is temporal: P-Reduce wins because of where time
// goes (wait-at-barrier vs. compute vs. communication) and because
// staleness and sync-graph connectivity stay bounded. End-of-run
// aggregates cannot show a straggler stall, a frozen-group near-miss, or
// a retry storm; a per-iteration timeline can. Events cover the worker
// iteration phases (compute, signal-wait, group-wait, reduce-scatter,
// all-gather, retries), the controller's decisions (ready-queue depth,
// group formation, staleness vectors, frozen-avoidance triggers,
// snapshot/restore/rebuild), and the fault plane (link sever/heal,
// partition windows, timeouts, aborts).
//
// Two exporters turn a recorded buffer into files (see export.go): Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing with one
// track per worker plus one for the controller, and a streaming JSONL
// event log for ad-hoc analysis.
package trace

import (
	"sync"
	"time"
)

// Clock supplies timestamps in seconds. The origin is arbitrary but must
// be fixed for the lifetime of a Tracer: the simulator passes its virtual
// clock (FuncClock(eng.Now)), the live runtime a monotonic wall clock.
type Clock interface {
	Now() float64
}

// FuncClock adapts a plain function — typically the simulator engine's
// Now — into a Clock.
type FuncClock func() float64

// Now implements Clock.
func (f FuncClock) Now() float64 { return f() }

// wallClock reports monotonic seconds since its creation.
type wallClock struct{ start time.Time }

// Now implements Clock.
func (w wallClock) Now() float64 { return time.Since(w.start).Seconds() }

// NewWallClock returns a Clock reporting monotonic seconds since this
// call. All tracks of one live run must share one wall clock, or their
// spans will not align.
func NewWallClock() Clock { return wallClock{start: time.Now()} }

// Kind enumerates the event vocabulary. Span kinds have a duration;
// instant kinds mark a point in time. Kind-specific integer arguments A
// and B ride along in the Event so no event ever allocates.
type Kind uint8

const (
	// Span kinds (Dur > 0 meaningful).

	// KCompute is one local mini-batch: sample, gradient, SGD step.
	KCompute Kind = iota
	// KSignalWait is the wait between sending a ready signal and
	// receiving the controller's group reply (A=1 when released solo).
	KSignalWait
	// KGroupWait is the simulator's span from group formation to group
	// completion (the modeled controller RTT + ring time).
	KGroupWait
	// KCollective is one whole group collective attempt set (A=opID,
	// B=group size).
	KCollective
	// KReduceScatter and KAllGather are the two ring phases (A=opID).
	KReduceScatter
	KAllGather
	// KRetryBackoff is the pause between collective attempts (A=opID,
	// B=attempt number).
	KRetryBackoff

	// Instant kinds (Dur is 0).

	// KReady marks a ready signal accepted by the controller
	// (Track=worker, Iter=reported iteration, A=queue depth after).
	KReady
	// KGroupFormed marks a controller group decision (controller track,
	// Iter=group max iteration, A=group sequence number, B=group size).
	KGroupFormed
	// KStaleness carries one member's staleness at group formation
	// (Track=member, A=staleness in iterations, B=group sequence).
	KStaleness
	// KBridged marks a group rewritten by frozen avoidance (A=group seq).
	KBridged
	// KDeferred marks the filter deferring a group to wait for a bridging
	// signal (A=queue depth).
	KDeferred
	// KGroupAborted marks a group torn down (A=opID, B=dead rank or -1).
	KGroupAborted
	// KRelease marks the controller releasing a stranded worker to
	// proceed solo (Track=worker).
	KRelease
	// KWorkerDead marks a worker declared dead (Track=worker, A=new epoch).
	KWorkerDead
	// KRetry marks a collective attempt re-run after a timeout (A=opID,
	// B=attempt number).
	KRetry
	// KTimeout marks a receive deadline firing inside a collective
	// (A=opID).
	KTimeout
	// KAbort marks a collective abandoned after exhausting its retry
	// budget (A=opID).
	KAbort
	// KCrash marks a worker fail-stop (Track=worker, Iter=iteration).
	KCrash
	// KLinkSever / KLinkHeal mark directed link faults (A=from, B=to;
	// A=B=-1 for heal-all).
	KLinkSever
	KLinkHeal
	// KLinkDrop marks a frame dropped by fault injection (A=from, B=to).
	KLinkDrop
	// KPartition / KPartitionHeal mark a timed partition window opening
	// and closing (A=first partitioned rank).
	KPartition
	KPartitionHeal
	// KPolicyDecision marks an adaptive-p group size that differs from
	// fixed P's (A=decided group size, B=fixed-P size).
	KPolicyDecision
	// KWorkerJoin marks a rank admitted into the membership
	// (Track=worker, A=new epoch).
	KWorkerJoin
	// KWorkerDrain marks a rank entering graceful drain (Track=worker,
	// A=new epoch).
	KWorkerDrain
	// KWorkerDecommission marks a drained rank leaving the membership
	// (Track=worker, A=new epoch).
	KWorkerDecommission
	// KEpochStale marks a ready signal rejected for carrying a stale
	// world-view epoch (Track=worker, A=signal epoch, B=current epoch).
	KEpochStale
	// KBootstrap marks a joining rank fetching the model from a live
	// donor (Track=joiner, A=donor rank, B=param count).
	KBootstrap
	// KTruncated is never recorded: WriteJSONL writes it as the header
	// record of a trace whose ring overwrote events (TS=the oldest retained
	// event's, A=events dropped), so a reader can tell a reference into the
	// overwritten past from a corrupt one.
	KTruncated

	kindCount // internal: table size
)

// kindNames maps kinds to the stable names exporters emit. Keep in sync
// with the Kind constants; tests cross-check the table.
var kindNames = [kindCount]string{
	KCompute:            "compute",
	KSignalWait:         "signal-wait",
	KGroupWait:          "group-wait",
	KCollective:         "collective",
	KReduceScatter:      "reduce-scatter",
	KAllGather:          "all-gather",
	KRetryBackoff:       "retry-backoff",
	KReady:              "ready",
	KGroupFormed:        "group-formed",
	KStaleness:          "staleness",
	KBridged:            "group-bridged",
	KDeferred:           "group-deferred",
	KGroupAborted:       "group-aborted",
	KRelease:            "solo-release",
	KWorkerDead:         "worker-dead",
	KRetry:              "retry",
	KTimeout:            "timeout",
	KAbort:              "abort",
	KCrash:              "crash",
	KLinkSever:          "link-sever",
	KLinkHeal:           "link-heal",
	KLinkDrop:           "link-drop",
	KPartition:          "partition",
	KPartitionHeal:      "partition-heal",
	KPolicyDecision:     "policy-decision",
	KWorkerJoin:         "worker-join",
	KWorkerDrain:        "worker-drain",
	KWorkerDecommission: "worker-decommission",
	KEpochStale:         "epoch-stale",
	KBootstrap:          "bootstrap",
	KTruncated:          "trace-truncated",
}

// String returns the exporter name of k ("kind-N" for unknown values).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "kind-?"
}

// kindByName is the exporter-name → Kind reverse of kindNames.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, kindCount)
	for k := Kind(0); k < kindCount; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// KindByName resolves an exporter name (the JSONL "kind" field) back to
// its Kind — the parsing half of the trace-analysis pipeline.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// ControllerTrack is the track id of controller-side events; worker
// events use the worker's rank (>= 0).
const ControllerTrack int32 = -1

// NoOrigin is the Origin value of events recorded by a tracer whose
// recording process was never identified with SetOrigin (the simulator's
// single shared tracer, unit tests).
const NoOrigin int32 = -1

// Event is one fixed-size trace record. It contains no pointers, so the
// ring buffer is a single flat allocation and recording never touches
// the heap.
type Event struct {
	TS    float64 // start time, clock seconds
	Dur   float64 // span duration in seconds; 0 for instants
	Kind  Kind
	Track int32 // worker rank, or ControllerTrack
	Iter  int32 // iteration context, -1 when not applicable
	// Origin is the rank of the process that recorded the event (the
	// tracer's SetOrigin value), or NoOrigin. It is what lets a merged
	// multi-rank timeline tell rank 2's events apart from rank 0's without
	// relying on the per-rank file name — in particular for events whose
	// Track is not the recording rank (ControllerTrack instants, link
	// faults).
	Origin int32
	A, B   int64 // kind-specific arguments
}

// DefaultCapacity is the ring size used when New is given cap <= 0:
// 64Ki events ≈ 3 MiB, several thousand iterations of a small world.
const DefaultCapacity = 1 << 16

// Tracer records events into a pre-allocated ring. The zero-capacity
// disabled form is a nil *Tracer: all methods are nil-safe no-ops.
// Tracer is safe for concurrent use by multiple goroutines.
type Tracer struct {
	mu      sync.Mutex
	clock   Clock
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
	origin  int32
	sink    func(Event)
}

// New returns a tracer reading timestamps from clock and retaining the
// most recent cap events (cap <= 0 selects DefaultCapacity).
func New(clock Clock, cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultCapacity
	}
	return &Tracer{clock: clock, buf: make([]Event, cap), origin: NoOrigin}
}

// SetOrigin stamps rank into the Origin of every event recorded from now
// on. A live multi-process runtime sets it to the process's rank so the
// exported trace self-identifies its recording process; the simulator's
// single tracer leaves it at NoOrigin. Nil-safe.
func (t *Tracer) SetOrigin(rank int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.origin = rank
	t.mu.Unlock()
}

// SetSink makes sink see every event as it is recorded, under the tracer's
// lock and before the ring can overwrite it: how live instruments fold the
// same events the exporters write. A nil sink detaches. Nil-safe.
func (t *Tracer) SetSink(sink func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = sink
	t.mu.Unlock()
}

// Now returns the tracer's clock reading, or 0 on a nil tracer. Span
// call sites capture start := tr.Now() and pass it back to Span.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock.Now()
}

// record appends ev, overwriting the oldest event when full, and hands it
// to the sink.
func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	if t.wrapped {
		t.dropped++
	}
	ev.Origin = t.origin
	if t.sink != nil {
		t.sink(ev)
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.wrapped = true
	}
	t.mu.Unlock()
}

// Span records a span of kind k that began at start (a prior Now reading)
// and ends now.
func (t *Tracer) Span(k Kind, track, iter int32, start float64, a, b int64) {
	if t == nil {
		return
	}
	now := t.clock.Now()
	dur := now - start
	if dur < 0 {
		dur = 0
	}
	t.record(Event{TS: start, Dur: dur, Kind: k, Track: track, Iter: iter, A: a, B: b})
}

// SpanAt records a span with explicit start and duration — the
// simulator's form, where both endpoints are known virtual times.
func (t *Tracer) SpanAt(k Kind, track, iter int32, start, dur float64, a, b int64) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.record(Event{TS: start, Dur: dur, Kind: k, Track: track, Iter: iter, A: a, B: b})
}

// Instant records a point event at the current clock reading.
func (t *Tracer) Instant(k Kind, track, iter int32, a, b int64) {
	if t == nil {
		return
	}
	t.record(Event{TS: t.clock.Now(), Kind: k, Track: track, Iter: iter, A: a, B: b})
}

// InstantAt records a point event at an explicit time.
func (t *Tracer) InstantAt(k Kind, track, iter int32, ts float64, a, b int64) {
	if t == nil {
		return
	}
	t.record(Event{TS: ts, Kind: k, Track: track, Iter: iter, A: a, B: b})
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wrapped {
		return len(t.buf)
	}
	return t.next
}

// Dropped returns the number of events overwritten after the ring filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the retained events in recording order
// (oldest first). Recording order is chronological per track; across
// tracks it is the serialization order of the recorder.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		out := make([]Event, t.next)
		copy(out, t.buf[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}
