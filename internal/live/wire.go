package live

import (
	"fmt"
	"math"
	"slices"

	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
	"partialreduce/internal/transport"
)

// The multi-process control plane's wire format, in one place. Control
// messages travel over the same transport as the collectives, as float64
// payloads under tags the collectives never use (their high bits never carry
// the ctrl prefix), so the two planes cannot collide. Each control stream is
// one transport.Stream tag, read in arrival order; ready signals and replies
// carry the worker's seq (engine.Signaler) in their payload. Each stream has
// one encoder and one decoder; a decoder trusts nothing — every integral slot
// must be a finite, in-range integer (ranks below N, group sizes at most N)
// and every weight finite — because one malformed frame must cost an error,
// not a panic or a poisoned model. Encoders refuse values a float64 slot
// cannot carry exactly instead of rounding them.
const (
	ctrlReadyTag = transport.Stream | 0xC0<<48 // worker → host: readyMsg
	ctrlReplyTag = transport.Stream | 0xC1<<48 // host → worker: seq + directive
	ctrlAbortTag = transport.Stream | 0xC2<<48 // host → worker: [op, dead]
	ctrlJoinTag  = transport.Stream | 0xC4<<48 // host → parked rank: [op, donor]
	// ctrlModelTag carries one frame per completed worker → host: its final
	// parameters. Not a stream: a second frame is a protocol violation.
	ctrlModelTag uint64 = 0xC3 << 48
)

// maxExact is the largest integer a float64 slot carries without rounding.
const maxExact = 1 << 53

// fields reads the integral slots of one payload and keeps the first
// violation, so a decoder states its layout once and checks err once.
type fields struct {
	p   []float64
	err error
}

// int returns slot i as an integer in [lo, hi]. NaN and ±Inf fail the range
// test like any other out-of-range value.
func (f *fields) int(i int, lo, hi float64, what string) int {
	v := f.p[i]
	if v >= lo && v <= hi && v == math.Trunc(v) {
		return int(v)
	}
	if f.err == nil {
		f.err = fmt.Errorf("live: control frame: %s %v is not an integer in [%v, %v]", what, v, lo, hi)
	}
	return 0
}

// float returns slot i as a finite number (weights are the only non-integral
// slots on the control plane).
func (f *fields) float(i int, what string) float64 {
	v := f.p[i]
	if (math.IsNaN(v) || math.IsInf(v, 0)) && f.err == nil {
		f.err = fmt.Errorf("live: control frame: %s %v is not finite", what, v)
	}
	return v
}

// readyKind says what a ready-stream message is. On the wire it is slot 0:
// an iteration number (>= 0) for a ready signal, or one of the negative
// markers below.
type readyKind int

const (
	evReady     readyKind = iota // [iter, epoch, seq]
	evFinished                   // [-1]: completed all iterations
	evDeath                      // [-2, dead, op]: peer death inside op
	evStuck                      // [-2, -1, op]: op timed out, nobody known dead
	evJoinAbort                  // [-3]: bootstrap transfer failed; un-join me
)

const (
	markFinished  = -1
	markFailure   = -2
	markJoinAbort = -3
)

// readyMsg is one message of a worker's ready stream.
type readyMsg struct {
	kind readyKind
	engine.ReadyFrame
	dead int    // evDeath
	op   uint32 // evDeath, evStuck
}

func appendReady(dst []float64, m readyMsg) ([]float64, error) {
	switch m.kind {
	case evReady:
		if m.Iter < 0 || m.Iter > maxExact || m.Epoch > maxExact || m.Seq > maxExact {
			return dst, fmt.Errorf("live: ready signal iter %d epoch %d seq %d does not fit a float64 slot", m.Iter, m.Epoch, m.Seq)
		}
		return append(dst, float64(m.Iter), float64(m.Epoch), float64(m.Seq)), nil
	case evFinished:
		return append(dst, markFinished), nil
	case evDeath:
		return append(dst, markFailure, float64(m.dead), float64(m.op)), nil
	case evStuck:
		return append(dst, markFailure, -1, float64(m.op)), nil
	case evJoinAbort:
		return append(dst, markJoinAbort), nil
	}
	return dst, fmt.Errorf("live: unknown ready-stream kind %d", m.kind)
}

func decodeReady(p []float64, n int) (readyMsg, error) {
	if len(p) == 0 {
		return readyMsg{}, fmt.Errorf("live: empty ready-stream frame")
	}
	f := fields{p: p}
	head := f.int(0, markJoinAbort, maxExact, "ready marker")
	var m readyMsg
	want := 1
	switch {
	case f.err != nil:
		return readyMsg{}, f.err
	case head == markFinished:
		m.kind = evFinished
	case head == markJoinAbort:
		m.kind = evJoinAbort
	default:
		want = 3 // a ready signal or a failure report
	}
	if len(p) != want {
		return readyMsg{}, fmt.Errorf("live: ready-stream frame %v: want %d slots", p, want)
	}
	switch {
	case head == markFailure:
		m.kind, m.op = evStuck, uint32(f.int(2, 0, math.MaxUint32, "op id"))
		if dead := f.int(1, -1, float64(n-1), "dead rank"); dead >= 0 {
			m.kind, m.dead = evDeath, dead
		}
	case head >= 0:
		m.Iter, m.Epoch, m.Seq = head, uint64(f.int(1, 0, maxExact, "epoch")), uint64(f.int(2, 0, maxExact, "seq"))
	}
	return m, f.err
}

// Reply modes (slot 0 of a reply frame).
const (
	modeGroup     = 0 // reduce with the encoded group
	modeSkip      = 1 // proceed solo this iteration
	modeDrain     = 2 // graceful hand-off complete; exit cleanly
	modeRefresh   = 3 // stale epoch; adopt the reply's epoch and re-signal
	modeBootstrap = 4 // serve model state to rank aux under op opID, re-signal
)

// directiveLen is the reply frame length for a group of p members:
// [mode, opID, iter, initWeight, epoch, aux, P, seq, members..., weights...].
// seq is the answered signal's; aux carries the joiner rank for
// modeBootstrap and is zero otherwise; only modeGroup has members.
func directiveLen(p int) int { return 8 + 2*p }

func appendDirective(dst []float64, seq uint64, d engine.Directive) ([]float64, error) {
	g := d.Group
	mode, aux, opID := modeGroup, 0, d.OpID
	switch {
	case d.Skip:
		mode, g = modeSkip, controller.Group{}
	case d.Drain:
		mode, g = modeDrain, controller.Group{}
	case d.Refresh:
		mode, g = modeRefresh, controller.Group{}
	case d.Bootstrap:
		mode, g, aux, opID = modeBootstrap, controller.Group{}, d.BootstrapFor, d.BootstrapOp
	}
	if d.Epoch > maxExact || seq > maxExact || g.Iter < 0 || g.Iter > maxExact || len(g.Weights) != len(g.Members) {
		return dst, fmt.Errorf("live: directive (seq %d, epoch %d, iter %d, %d members, %d weights) does not fit the reply frame",
			seq, d.Epoch, g.Iter, len(g.Members), len(g.Weights))
	}
	dst = append(dst, float64(mode), float64(opID), float64(g.Iter), g.InitWeight,
		float64(d.Epoch), float64(aux), float64(len(g.Members)), float64(seq))
	for _, m := range g.Members {
		dst = append(dst, float64(m))
	}
	return append(dst, g.Weights...), nil
}

// decodeDirective returns a reply frame's seq and directive. A group's
// members and weights are decoded into members and weights, grown if their
// capacity is short, so the directive shares them until the caller reuses
// them; nil slices decode into fresh ones.
func decodeDirective(p []float64, n int, members []int, weights []float64) (uint64, engine.Directive, error) {
	var d engine.Directive
	if len(p) < directiveLen(0) {
		return 0, d, fmt.Errorf("live: short reply frame (%d slots)", len(p))
	}
	f := fields{p: p}
	mode := f.int(0, modeGroup, modeBootstrap, "reply mode")
	op := uint32(f.int(1, 0, math.MaxUint32, "op id"))
	iter := f.int(2, 0, maxExact, "group iteration")
	initWeight := f.float(3, "init weight")
	d.Epoch = uint64(f.int(4, 0, maxExact, "epoch"))
	aux := f.int(5, 0, float64(n-1), "joiner rank")
	np := f.int(6, 0, float64(n), "group size")
	seq := uint64(f.int(7, 0, maxExact, "seq"))
	switch {
	case f.err != nil:
		return 0, engine.Directive{}, f.err
	case len(p) != directiveLen(np) || (mode != modeGroup && np != 0):
		return 0, engine.Directive{}, fmt.Errorf("live: reply frame of %d slots for mode %d, P=%d", len(p), mode, np)
	}
	switch mode {
	case modeGroup:
		d.OpID, d.Group.Iter, d.Group.InitWeight = op, iter, initWeight
		d.Group.Members = slices.Grow(members[:0], np)[:np]
		d.Group.Weights = slices.Grow(weights[:0], np)[:np]
		for i := range d.Group.Members {
			d.Group.Members[i] = f.int(8+i, 0, float64(n-1), "member rank")
			d.Group.Weights[i] = f.float(8+np+i, "member weight")
		}
	case modeSkip:
		d.Skip = true
	case modeDrain:
		d.Drain = true
	case modeRefresh:
		d.Refresh = true
	case modeBootstrap:
		d.Bootstrap, d.BootstrapFor, d.BootstrapOp = true, aux, op
	}
	if f.err != nil {
		return 0, engine.Directive{}, f.err
	}
	return seq, d, nil
}

// Abort and join frames share one shape, [op, rank], rank -1 meaning none.
// Abort stream: abandon collective op locally; rank is the peer whose loss
// triggered it (none: a stuck op). Op 0 is the shutdown sentinel that ends a
// worker's abort listener. Join stream: bootstrap from donor rank under op,
// then train; no donor dismisses the parked rank — the run is over, exit
// without training.
func encodeOpRank(op uint32, rank int) []float64 { return []float64{float64(op), float64(rank)} }

func decodeOpRank(p []float64, n int) (op uint32, rank int, err error) {
	if len(p) != 2 {
		return 0, 0, fmt.Errorf("live: abort/join frame of %d slots", len(p))
	}
	f := fields{p: p}
	op, rank = uint32(f.int(0, 0, math.MaxUint32, "op id")), f.int(1, -1, float64(n-1), "rank")
	return op, rank, f.err
}
