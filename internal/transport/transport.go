// Package transport provides the live message-passing layer of the runtime:
// point-to-point float64-vector messages between ranks, over either an
// in-process channel mesh (one address space, as in the tests and examples)
// or TCP sockets (stdlib net, length-prefixed binary frames), mirroring the
// prototype's Gloo/TCP split (§4). Collectives in internal/collective are
// built on this interface.
//
// Failure model: a peer can crash (fail-stop). Peer loss is isolated — only
// operations involving that peer fail, with a typed *PeerDownError; traffic
// between surviving ranks continues. Every endpoint can declare a peer dead,
// abort or purge one collective operation, bound a receive by a deadline,
// and fail itself — the primitives the live runtime's recovery path is built
// from — and the Faulty wrapper injects a deterministic fault plan (crashes,
// dropped first frames, severed links, timed partitions) for tests and
// experiments.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"partialreduce/internal/bufpool"
)

// Transport is a rank's endpoint in a fixed-size communication world.
// Sends are asynchronous (buffered); receives block until a message with the
// requested source and tag arrives. A (from, tag) pair identifies at most
// one outstanding message at a time, which the collectives guarantee by
// deriving tags from (operation id, phase, step) — unless the tag is a
// stream's (it carries Stream): then the frames queue in arrival order and
// each receive takes the oldest.
type Transport interface {
	// Rank returns this endpoint's id in [0, Size).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// Send delivers payload to rank to with the given tag. The payload is
	// copied before Send returns; the caller may reuse it.
	Send(to int, tag uint64, payload []float64) error
	// Lend is Send without the copy it can avoid: the payload stays the
	// caller's, and the caller must not write it until loans.Settle or
	// loans.Recall returns. A receive then finds what Send would have left
	// it. A transport that must copy anyway (the kernel copies a TCP write;
	// a Stream tag queues) lends nothing and leaves loans empty.
	Lend(to int, tag uint64, payload []float64, loans *Loans) error
	// RecvInto blocks until a message from rank from with the given tag
	// arrives and copies its payload into dst, returning the element count.
	// The transport's internal buffer is recycled instead of escaping to the
	// caller, so a steady-state receive allocates nothing. If the payload is
	// longer than dst, RecvInto fails with an error matching ErrShortBuffer
	// (the message is consumed — a length mismatch is a protocol bug, not a
	// retryable condition). n may be smaller than len(dst); dst[n:] is
	// untouched.
	RecvInto(from int, tag uint64, dst []float64) (int, error)
	// RecvIntoTimeout is RecvInto bounded by a deadline: it fails with a
	// *TimeoutError (matching ErrTimeout) if no message arrives within
	// timeout. A timeout consumes nothing — the message, should it arrive
	// later, stays deliverable. timeout <= 0 means no deadline.
	//
	// Deadlines are what turn a severed link or a partition from an eternal
	// hang into a recoverable error: every blocking wait in the runtime is
	// bounded by one, and the retry/abort machinery above decides what to do
	// next.
	RecvIntoTimeout(from int, tag uint64, dst []float64, timeout time.Duration) (int, error)
	// PurgeOp discards buffered frames of collective op without poisoning
	// future receives. The retry machinery uses it between attempts: frames
	// from a timed-out attempt's stale tag epoch are dropped so they cannot
	// alias a later one.
	PurgeOp(op uint32)
	// AbortOp aborts collective op at this endpoint: pending and future
	// receives whose tag belongs to op fail with *OpAbortedError. The live
	// runtime uses it to unblock every member of a group whose collective
	// lost a participant.
	AbortOp(op uint32)
	// FailPeer declares peer dead: pending and future operations involving
	// it fail with *PeerDownError; everything else keeps working.
	FailPeer(peer int)
	// FailSelf simulates this endpoint's own fail-stop crash without tearing
	// down the process: every peer observes this rank as down (exactly as if
	// its process had exited and its connections broken), and the endpoint's
	// own pending and future operations fail with *PeerDownError.
	FailSelf()
	// FrameElems is the payload length, in float64 elements, at which this
	// transport's fixed cost per frame stops mattering: collective's exchange
	// runs while its root's traffic, 2(g−1) inputs, fits one. It is positive
	// and never more than the endpoint's receivers accept.
	FrameElems() int
	// SegmentElems is the segment a ring of g members moves: positive, never
	// more than the receivers accept, and FrameElems unless the group size
	// changes what a ring step should carry.
	SegmentElems(g int) int
	// Close releases the endpoint. Pending receives fail.
	Close() error
}

// Stream marks a tag as a stream's: one tag for a whole sequence of frames,
// the live control plane's shape. A sender's frames on a stream arrive in
// the order it sent them, unless a fault drops one.
const Stream uint64 = 1 << 63

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrPeerDown matches (via errors.Is) any *PeerDownError.
var ErrPeerDown = errors.New("transport: peer down")

// ErrOpAborted matches (via errors.Is) any *OpAbortedError.
var ErrOpAborted = errors.New("transport: operation aborted")

// ErrShortBuffer is returned (wrapped) by RecvInto when the incoming payload
// does not fit the destination buffer.
var ErrShortBuffer = errors.New("transport: short receive buffer")

// ErrTimeout matches (via errors.Is) any *TimeoutError.
var ErrTimeout = errors.New("transport: receive timed out")

// TimeoutError reports that a deadline-bounded receive expired before the
// message arrived — the symptom of a severed link, a partition, or a peer
// stalled past the deadline. Nothing was consumed; the receive may be retried.
type TimeoutError struct {
	Peer    int
	Tag     uint64
	Timeout time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("transport: receive from %d tag %#x timed out after %s", e.Peer, e.Tag, e.Timeout)
}

// Is reports equivalence to the ErrTimeout sentinel.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// PeerDownError reports that one specific peer crashed or was declared dead.
// Only operations involving that peer fail; the rest of the world is usable.
type PeerDownError struct{ Peer int }

// Error implements error.
func (e *PeerDownError) Error() string {
	return fmt.Sprintf("transport: peer %d down", e.Peer)
}

// Is reports equivalence to the ErrPeerDown sentinel.
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }

// OpAbortedError reports that a collective operation was aborted, typically
// because a group member died mid-collective. Dead is the rank whose failure
// triggered the abort (-1 when unknown).
type OpAbortedError struct {
	Op   uint32
	Dead int
}

// Error implements error.
func (e *OpAbortedError) Error() string {
	return fmt.Sprintf("transport: op %d aborted (peer %d down)", e.Op, e.Dead)
}

// Is reports equivalence to the ErrOpAborted sentinel.
func (e *OpAbortedError) Is(target error) bool { return target == ErrOpAborted }

// IsFailure reports whether err is a recoverable group failure: a dead peer,
// an aborted collective, or a timed-out receive, as opposed to a closed
// transport or a protocol error.
func IsFailure(err error) bool {
	return errors.Is(err, ErrPeerDown) || errors.Is(err, ErrOpAborted) || errors.Is(err, ErrTimeout)
}

// IsTimeout reports whether err is (or wraps) a receive timeout.
func IsTimeout(err error) bool { return errors.Is(err, ErrTimeout) }

// opOf extracts the collective operation id from a tag (the layout of
// internal/collective: op<<24 | phase<<16 | step).
func opOf(tag uint64) uint64 { return tag >> 24 }

type message struct {
	from    int
	tag     uint64
	payload []float64
	loans   *Loans // non-nil: payload is lent, not pooled
}

// parked is one buffered frame: a pooled payload the mailbox owns, or, when
// loans is set, a sender's own slice on loan until a receive copies it out.
type parked struct {
	buf   []float64
	loans *Loans
}

// drop discards the frame: a pooled payload goes back to the pool, a lent
// one back to its lender. A lent array must never reach the pool: the pool
// would hand the sender's slice to a stranger.
func (p parked) drop() {
	if p.loans != nil {
		p.loans.release()
	} else {
		bufpool.PutFloat64(p.buf)
	}
}

type key struct {
	from int
	tag  uint64
}

// recvResult completes a receive: n elements copied into the receiver's
// buffer, or an error.
type recvResult struct {
	n   int
	err error
}

// fill copies payload into dst, the one place a received payload meets its
// destination buffer.
func fill(dst, payload []float64) recvResult {
	if len(payload) > len(dst) {
		return recvResult{err: fmt.Errorf("%w: payload %d into %d", ErrShortBuffer, len(payload), len(dst))}
	}
	return recvResult{n: copy(dst, payload)}
}

// waiter is one blocked receive: the delivering goroutine copies the payload
// into dst and publishes the result on ch. Waiters are pooled: a ring step's
// receive must not allocate.
type waiter struct {
	dst []float64
	ch  chan recvResult
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan recvResult, 1)} }}

// mailbox matches incoming messages to waiting receivers, with per-peer
// failure isolation and per-operation aborts. Pending payloads are pool-owned
// (bufpool) or lent (Lend); a receive that consumes one, or a failure path
// that drops one, recycles the first and releases the second.
type mailbox struct {
	mu      sync.Mutex
	pending map[key]parked
	queued  map[key][][]float64 // a stream's frames, oldest first
	waiters map[key]*waiter
	down    map[int]bool
	aborted map[uint64]int // op id -> dead rank that caused the abort
	closed  bool
	dead    int // >= 0: the owning rank failed itself (fail-stop crash)
}

func newMailbox() *mailbox {
	return &mailbox{
		pending: make(map[key]parked),
		queued:  make(map[key][][]float64),
		waiters: make(map[key]*waiter),
		down:    make(map[int]bool),
		aborted: make(map[uint64]int),
		dead:    -1,
	}
}

// deliverDirect attempts to complete a blocked receive straight from the
// sender's payload, skipping the intermediate pooled copy — the common case
// on a pipelined ring, where the receiver is already parked in RecvInto by
// the time the matching Send runs. It returns handled=true when the message
// was consumed (or terminally rejected); handled=false means no receiver was
// parked and the caller must fall back to deliver.
//
// The copy into w.dst happens after m.mu is released: removing w from
// m.waiters under the lock makes this goroutine the only one that can
// complete it, and the receiver cannot touch dst until the channel send
// publishes the result.
func (m *mailbox) deliverDirect(from int, tag uint64, payload []float64) (bool, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return true, ErrClosed
	}
	if m.dead >= 0 {
		m.mu.Unlock()
		return true, &PeerDownError{Peer: m.dead}
	}
	if m.down[from] {
		m.mu.Unlock()
		return true, &PeerDownError{Peer: from}
	}
	k := key{from: from, tag: tag}
	w, ok := m.waiters[k]
	if !ok {
		m.mu.Unlock()
		return false, nil
	}
	delete(m.waiters, k)
	m.mu.Unlock()

	w.ch <- fill(w.dst, payload)
	return true, nil
}

// deliver takes ownership of msg.payload (a pooled buffer, or a loan it
// records in msg.loans) unless it returns an error, in which case the caller
// keeps it.
func (m *mailbox) deliver(msg message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.dead >= 0 {
		// The owning rank crashed: senders see it down.
		return &PeerDownError{Peer: m.dead}
	}
	if m.down[msg.from] {
		// The receiver considers the sender dead; drop the message and tell
		// the sender.
		return &PeerDownError{Peer: msg.from}
	}
	p := parked{buf: msg.payload, loans: msg.loans}
	if _, gone := m.aborted[opOf(msg.tag)]; gone {
		// The frame belongs to an aborted collective: a straggler from a
		// failed attempt. Drop it instead of parking it in pending forever
		// (a loan not yet recorded has nothing to release).
		if p.loans == nil {
			bufpool.PutFloat64(p.buf)
		}
		return nil
	}
	k := key{from: msg.from, tag: msg.tag}
	if w, ok := m.waiters[k]; ok {
		delete(m.waiters, k)
		r := fill(w.dst, p.buf)
		if p.loans == nil {
			bufpool.PutFloat64(p.buf)
		}
		w.ch <- r
		return nil
	}
	if msg.tag&Stream != 0 {
		m.queued[k] = append(m.queued[k], p.buf)
		return nil
	}
	if _, dup := m.pending[k]; dup {
		return fmt.Errorf("transport: duplicate message from %d tag %d", msg.from, msg.tag)
	}
	if p.loans != nil {
		p.loans.add(m, k)
	}
	m.pending[k] = p
	return nil
}

// unlend turns a frame parked on loan under k into a pooled copy and
// releases the loan: the receiver finds the same bits, and the lender gets
// its slice back without waiting for it. Callers hold m.mu.
func (m *mailbox) unlend(k key, p parked) {
	cp := bufpool.GetFloat64(len(p.buf))
	copy(cp, p.buf)
	m.pending[k] = parked{buf: cp}
	p.loans.release()
}

// checkReceivable reports (under m.mu) whether a receive from (from, tag)
// can proceed, failing fast on closed/aborted/down states.
func (m *mailbox) checkReceivable(from int, tag uint64) error {
	if m.closed {
		return ErrClosed
	}
	if dead, ok := m.aborted[opOf(tag)]; ok {
		return &OpAbortedError{Op: uint32(opOf(tag)), Dead: dead}
	}
	if m.down[from] {
		return &PeerDownError{Peer: from}
	}
	return nil
}

// receiveInto is the one blocking receive: it consumes a buffered message or
// parks a pooled waiter for (from, tag) until a delivery or a failure path
// completes it. timeout > 0 bounds the wait: on expiry the waiter is
// withdrawn under the lock, and if a deliverer got to it first the delivery
// wins and the receive completes normally, so a timeout consumes nothing.
// The unbounded wait arms no timer (the steady-state ring must not
// allocate).
func (m *mailbox) receiveInto(from int, tag uint64, dst []float64, timeout time.Duration) (int, error) {
	k := key{from: from, tag: tag}
	m.mu.Lock()
	if err := m.checkReceivable(from, tag); err != nil {
		m.mu.Unlock()
		return 0, err
	}
	p, ok := m.pending[k]
	if tag&Stream != 0 && len(m.queued[k]) > 0 {
		p, ok, m.queued[k] = parked{buf: m.queued[k][0]}, true, m.queued[k][1:]
	} else if ok {
		delete(m.pending, k)
	}
	if ok {
		m.mu.Unlock()
		r := fill(dst, p.buf)
		p.drop() // after the copy: a lender may write its slice once released
		return r.n, r.err
	}
	w := waiterPool.Get().(*waiter)
	w.dst = dst
	m.waiters[k] = w
	m.mu.Unlock()

	var r recvResult
	if timeout <= 0 {
		r = <-w.ch
	} else {
		timer := time.NewTimer(timeout)
		select {
		case r = <-w.ch:
			timer.Stop()
		case <-timer.C:
			m.mu.Lock()
			parked := m.waiters[k] == w
			if parked {
				delete(m.waiters, k)
			}
			m.mu.Unlock()
			if parked {
				r.err = &TimeoutError{Peer: from, Tag: tag, Timeout: timeout}
			} else {
				// A deliverer (or failure path) already claimed the waiter;
				// its result is in flight on w.ch. Accept it — the message
				// was consumed.
				r = <-w.ch
			}
		}
	}
	w.dst = nil
	waiterPool.Put(w)
	return r.n, r.err
}

// failPeer marks peer dead: queued messages from it are dropped and blocked
// receives targeting it fail with *PeerDownError. Idempotent.
func (m *mailbox) failPeer(peer int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.down[peer] {
		return
	}
	m.down[peer] = true
	m.recycle(func(k key) bool { return k.from == peer })
	for k, w := range m.waiters {
		if k.from == peer {
			delete(m.waiters, k)
			w.ch <- recvResult{err: &PeerDownError{Peer: peer}}
		}
	}
}

// unlendFrom turns every frame from peer still parked on loan into a pooled
// copy.
func (m *mailbox) unlendFrom(peer int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, p := range m.pending {
		if k.from == peer && p.loans != nil {
			m.unlend(k, p)
		}
	}
}

// abortOp fails pending and future receives belonging to collective op.
func (m *mailbox) abortOp(op uint32, dead int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if _, done := m.aborted[uint64(op)]; done {
		return
	}
	m.aborted[uint64(op)] = dead
	m.recycle(func(k key) bool { return opOf(k.tag) == uint64(op) })
	for k, w := range m.waiters {
		if opOf(k.tag) == uint64(op) {
			delete(m.waiters, k)
			w.ch <- recvResult{err: &OpAbortedError{Op: op, Dead: dead}}
		}
	}
}

// purgeOp drops buffered frames belonging to collective op without marking
// the op aborted: future receives still work. Used between retry attempts to
// clear stale-epoch stragglers.
func (m *mailbox) purgeOp(op uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.recycle(func(k key) bool { return opOf(k.tag) == uint64(op) })
	}
}

// recycle drops the buffered frames whose key matches (under m.mu): pooled
// buffers return to the pool, loans to their lenders.
func (m *mailbox) recycle(match func(key) bool) {
	for k, p := range m.pending {
		if match(k) {
			delete(m.pending, k)
			p.drop()
		}
	}
	for k, q := range m.queued {
		if match(k) {
			delete(m.queued, k)
			for _, p := range q {
				bufpool.PutFloat64(p)
			}
		}
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for k, w := range m.waiters {
		delete(m.waiters, k)
		w.ch <- recvResult{err: ErrClosed}
	}
	m.recycle(func(key) bool { return true })
}

// FailPeerEverywhere declares dead crashed at every other endpoint of an
// in-process world.
func FailPeerEverywhere(world []Transport, dead int) {
	for i, t := range world {
		if i != dead && t != nil {
			t.FailPeer(dead)
		}
	}
}

// Mem is an in-process transport world: NewMem returns one endpoint per
// rank, all sharing one delivery fabric. Endpoints are safe for concurrent
// use by multiple goroutines.
type Mem struct {
	rank  int
	world []*mailbox
}

// NewMem creates an n-rank in-process world.
func NewMem(n int) []*Mem {
	if n < 1 {
		panic(fmt.Sprintf("transport: world size %d", n))
	}
	boxes := make([]*mailbox, n)
	for i := range boxes {
		boxes[i] = newMailbox()
	}
	eps := make([]*Mem, n)
	for i := range eps {
		eps[i] = &Mem{rank: i, world: boxes}
	}
	return eps
}

// Rank implements Transport.
func (m *Mem) Rank() int { return m.rank }

// Size implements Transport.
func (m *Mem) Size() int { return len(m.world) }

// Send implements Transport. The payload is copied into a pooled buffer, so
// steady-state traffic allocates nothing.
func (m *Mem) Send(to int, tag uint64, payload []float64) error {
	return m.Lend(to, tag, payload, nil)
}

// Lend implements Transport: a parked receiver is filled straight from
// payload, as Send fills it; otherwise a reference to payload waits in the
// receiver's mailbox, recorded in loans. A nil loans, or a Stream tag, copies
// it into a pooled buffer instead.
func (m *Mem) Lend(to int, tag uint64, payload []float64, loans *Loans) error {
	if to < 0 || to >= len(m.world) {
		return fmt.Errorf("transport: rank %d out of range", to)
	}
	box := m.world[to]
	if handled, err := box.deliverDirect(m.rank, tag, payload); handled {
		return err
	}
	if loans != nil && tag&Stream == 0 {
		return box.deliver(message{from: m.rank, tag: tag, payload: payload, loans: loans})
	}
	cp := bufpool.GetFloat64(len(payload))
	copy(cp, payload)
	if err := box.deliver(message{from: m.rank, tag: tag, payload: cp}); err != nil {
		bufpool.PutFloat64(cp)
		return err
	}
	return nil
}

// RecvInto implements Transport.
func (m *Mem) RecvInto(from int, tag uint64, dst []float64) (int, error) {
	return m.RecvIntoTimeout(from, tag, dst, 0)
}

// RecvIntoTimeout implements Transport.
func (m *Mem) RecvIntoTimeout(from int, tag uint64, dst []float64, timeout time.Duration) (int, error) {
	if from < 0 || from >= len(m.world) {
		return 0, fmt.Errorf("transport: rank %d out of range", from)
	}
	return m.world[m.rank].receiveInto(from, tag, dst, timeout)
}

// PurgeOp implements Transport.
func (m *Mem) PurgeOp(op uint32) { m.world[m.rank].purgeOp(op) }

// FailPeer implements Transport: this endpoint treats peer as crashed. What
// it lent into peer's mailbox becomes pooled copies there, so no Settle here
// waits on a receiver this endpoint has written off.
func (m *Mem) FailPeer(peer int) {
	if peer >= 0 && peer < len(m.world) {
		m.world[m.rank].failPeer(peer)
		m.world[peer].unlendFrom(m.rank)
	}
}

// AbortOp implements Transport.
func (m *Mem) AbortOp(op uint32) { m.world[m.rank].abortOp(op, -1) }

// FailSelf implements Transport: every peer sees this rank as down, and
// this rank sees every peer as down — the in-process equivalent of the
// process exiting and all its connections breaking.
func (m *Mem) FailSelf() {
	own := m.world[m.rank]
	own.mu.Lock()
	if own.dead < 0 {
		own.dead = m.rank
	}
	own.mu.Unlock()
	for r, box := range m.world {
		if r == m.rank {
			continue
		}
		box.failPeer(m.rank)
		own.failPeer(r)
	}
}

// memFrameElems is Mem's frame size: 4 Ki elements (32 KiB). A Mem frame
// costs a lock and a copy, so nothing per frame needs amortizing; the size
// keeps the segment being reduced and the one in flight in L1/L2.
const memFrameElems = 4 << 10

// FrameElems implements Transport.
func (m *Mem) FrameElems() int { return memFrameElems }

// memWideSegElems is the segment of an in-process ring of memWideRing or
// more members: 32 Ki elements (256 KiB). A ring op makes 2(g−1)·⌈n/(g·seg)⌉
// hand-offs, and among many ranks on few cores each one risks a scheduling
// bubble: 8x fewer leave the host less idle. A smaller ring runs beside
// ranks that compute, and there the 4 Ki frame's cache footprint wins
// (docs/perf-log.md, "wide in-process rings").
const (
	memWideSegElems = 32 << 10
	memWideRing     = 5
)

// SegmentElems implements Transport.
func (m *Mem) SegmentElems(g int) int {
	if g >= memWideRing {
		return memWideSegElems
	}
	return memFrameElems
}

// Close implements Transport. It closes only this endpoint's mailbox.
func (m *Mem) Close() error {
	m.world[m.rank].close()
	return nil
}
