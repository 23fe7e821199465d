package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"partialreduce/internal/bufpool"
)

// TCPOptions tune a TCP endpoint's failure-detection behavior. The zero
// value selects the defaults noted per field.
type TCPOptions struct {
	// MeshTimeout bounds the whole mesh formation (listen + accept + dial).
	// If some rank never starts, NewTCP fails after this long naming the
	// missing peer(s) instead of blocking forever. Default 15s.
	MeshTimeout time.Duration
	// HeartbeatInterval enables liveness probing: every interval the endpoint
	// sends a heartbeat frame to each peer. Zero disables heartbeats (peer
	// loss is then detected only by connection errors — which still covers
	// process crashes, whose sockets the OS closes).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a peer dead when nothing (data or heartbeat)
	// has arrived from it for this long. Default 10×HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// MaxFrameElems bounds the element count accepted from the wire
	// (default DefaultMaxFrameElems). A frame advertising more is treated as
	// peer corruption and fails that peer only.
	MaxFrameElems int
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.MeshTimeout <= 0 {
		o.MeshTimeout = 15 * time.Second
	}
	if o.HeartbeatInterval > 0 && o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * o.HeartbeatInterval
	}
	if o.MaxFrameElems <= 0 {
		o.MaxFrameElems = DefaultMaxFrameElems
	}
	return o
}

// TCP is a Transport over stdlib TCP sockets with a full-mesh topology:
// rank i listens on addrs[i], dials every lower rank, and accepts
// connections from every higher rank. Frames are length-prefixed binary,
// little-endian: 8-byte tag, 4-byte element count, 4-byte CRC-32C of the
// payload, then count float64s (frame.go has the layout and the codec).
//
// Peer loss is isolated: a broken or heartbeat-stale connection fails only
// operations involving that peer (with *PeerDownError); the rest of the mesh
// keeps working. A failed connection is never restored in place: a rank that
// comes back dials a new mesh.
type TCP struct {
	rank     int
	size     int
	box      *mailbox
	ln       net.Listener
	opts     TCPOptions
	conns    []*tcpConn     // index by peer rank; nil at own rank
	lastSeen []atomic.Int64 // unix-nano of the last frame per peer
	mu       sync.Mutex
	down     []bool
	done     bool
	stopHB   chan struct{}
	hbWG     sync.WaitGroup
}

type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
	// Send's scratch, guarded by mu: the header and the (header, payload view)
	// pair of one vectored write. WriteTo consumes bufs; iov re-arms it.
	hdr  [frameHeaderSize]byte
	iov  [2][]byte
	bufs net.Buffers
}

// NewTCP creates rank's endpoint in a world defined by addrs (one listen
// address per rank, e.g. "127.0.0.1:9001") with default options. It blocks
// until the full mesh is connected — all ranks must be starting
// concurrently — but no longer than the default mesh timeout.
func NewTCP(rank int, addrs []string) (*TCP, error) {
	return NewTCPOpts(rank, addrs, TCPOptions{})
}

// NewTCPOpts is NewTCP with explicit failure-detection options.
func NewTCPOpts(rank int, addrs []string, opts TCPOptions) (*TCP, error) {
	n := len(addrs)
	if n < 1 || rank < 0 || rank >= n {
		return nil, fmt.Errorf("transport: rank %d invalid for world of %d", rank, n)
	}
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return nil, errors.New("transport: TCP frames carry float64 memory as is, little-endian; big-endian hosts are not supported")
	}
	opts = opts.withDefaults()
	t := &TCP{
		rank: rank, size: n, box: newMailbox(), opts: opts,
		conns:    make([]*tcpConn, n),
		lastSeen: make([]atomic.Int64, n),
		down:     make([]bool, n),
		stopHB:   make(chan struct{}),
	}

	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[rank], err)
	}
	t.ln = ln
	deadline := time.Now().Add(opts.MeshTimeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)

	// Accept from higher ranks, under the listener deadline: if a higher
	// rank never starts, Accept times out instead of blocking forever.
	expect := n - 1 - rank
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < expect; i++ {
			c, err := ln.Accept()
			if err != nil {
				errs <- fmt.Errorf("accept: %w", err)
				return
			}
			c.SetReadDeadline(deadline)
			var hello [4]byte
			if _, err := io.ReadFull(c, hello[:]); err != nil {
				errs <- fmt.Errorf("hello: %w", err)
				return
			}
			c.SetReadDeadline(time.Time{})
			peer := int(binary.LittleEndian.Uint32(hello[:]))
			if peer <= rank || peer >= n {
				errs <- fmt.Errorf("bad hello from rank %d", peer)
				return
			}
			if !t.attach(peer, c) {
				c.Close()
				errs <- fmt.Errorf("duplicate hello from rank %d", peer)
				return
			}
		}
	}()

	// Dial lower ranks, retrying while peers are still binding their
	// listeners (world members start concurrently), up to the deadline.
	for peer := 0; peer < rank; peer++ {
		peer := peer
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dialRetry(addrs[peer], deadline)
			if err != nil {
				errs <- fmt.Errorf("dial rank %d: %w", peer, err)
				return
			}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(rank))
			if _, err := c.Write(hello[:]); err != nil {
				errs <- fmt.Errorf("hello to rank %d: %w", peer, err)
				return
			}
			t.attach(peer, c)
		}()
	}

	wg.Wait()
	missing := t.missingPeers()
	select {
	case err := <-errs:
		t.Close()
		if len(missing) > 0 {
			return nil, fmt.Errorf("transport: rank %d mesh formation failed (missing peers %v after %v): %w",
				rank, missing, opts.MeshTimeout, err)
		}
		return nil, fmt.Errorf("transport: rank %d mesh formation failed: %w", rank, err)
	default:
	}
	if len(missing) > 0 { // enough connections, yet not one per peer
		t.Close()
		return nil, fmt.Errorf("transport: rank %d mesh formation failed: peers %v never attached", rank, missing)
	}
	// Mesh complete: clear the formation deadline so Accept (unused from here
	// on) and established conns are unencumbered.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}
	now := time.Now().UnixNano()
	for p := range t.lastSeen {
		t.lastSeen[p].Store(now)
	}
	if opts.HeartbeatInterval > 0 {
		t.hbWG.Add(1)
		go t.heartbeatLoop()
	}
	return t, nil
}

// missingPeers lists the ranks this endpoint never connected to.
func (t *TCP) missingPeers() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var missing []int
	for p := 0; p < t.size; p++ {
		if p != t.rank && t.conns[p] == nil {
			missing = append(missing, p)
		}
	}
	sort.Ints(missing)
	return missing
}

// dialRetry dials addr, retrying while the peer's listener comes up, until
// deadline.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var err error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if err == nil {
				err = fmt.Errorf("timed out")
			}
			return nil, err
		}
		step := time.Second
		if remain < step {
			step = remain
		}
		var c net.Conn
		c, err = net.DialTimeout("tcp", addr, step)
		if err == nil {
			return c, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// attach makes c the connection to peer and starts its read loop, unless
// peer is attached already: a second hello from one rank must not stand in
// for a rank that never dialed.
func (t *TCP) attach(peer int, c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conns[peer] != nil {
		return false
	}
	t.conns[peer] = &tcpConn{c: c}
	go t.readLoop(peer, c)
	return true
}

// readLoop delivers frames from peer. Any error fails that peer only:
// receives targeting it get *PeerDownError while the rest of the mesh stays
// live. That covers connection loss and everything readFrame rejects (the
// wire is untrusted: an oversized count would otherwise drive a multi-GiB
// allocation, and after a checksum mismatch frame boundaries are suspect),
// and a frame the mailbox refuses, such as a second message under a
// (from, tag) still undelivered: exiting quietly there would leave the
// socket open and the peer's later sends falling into the void.
func (t *TCP) readLoop(peer int, c net.Conn) {
	hdr := make([]byte, frameHeaderSize)
	br := bufio.NewReaderSize(c, tcpReadBufBytes)
	for {
		tag, payload, err := readFrame(br, hdr, t.opts.MaxFrameElems)
		if err != nil {
			t.peerLost(peer)
			return
		}
		t.lastSeen[peer].Store(time.Now().UnixNano())
		if tag == hbTag && len(payload) == 0 {
			bufpool.PutFloat64(payload)
			continue // heartbeat: liveness only, nothing to deliver
		}
		if err := t.box.deliver(message{from: peer, tag: tag, payload: payload}); err != nil {
			bufpool.PutFloat64(payload)
			if err != ErrClosed {
				t.peerLost(peer)
			}
			return
		}
	}
}

// peerLost marks peer dead unless the whole endpoint is closing (in which
// case Close's box.close already failed everything).
func (t *TCP) peerLost(peer int) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.down[peer] = true
	tc := t.conns[peer]
	t.mu.Unlock()
	if tc != nil {
		tc.c.Close()
	}
	t.box.failPeer(peer)
}

// heartbeatLoop probes peers and declares the stale ones dead. Each sweep
// reads the clock exactly once and judges every peer's staleness against
// that single reading *before* any probe is written: a heartbeat write can
// block up to a full interval on a congested connection, and evaluating
// staleness against a clock captured before the blocking writes would skew
// later peers' deadlines by however long earlier writes stalled.
func (t *TCP) heartbeatLoop() {
	defer t.hbWG.Done()
	ticker := time.NewTicker(t.opts.HeartbeatInterval)
	defer ticker.Stop()
	hb := make([]byte, frameHeaderSize)
	putFrameHeader(hb, hbTag, 0, 0)
	stale := make([]bool, t.size)
	for {
		select {
		case <-t.stopHB:
			return
		case <-ticker.C:
		}
		// Phase 1: one clock read, all staleness verdicts.
		now := time.Now()
		for p := 0; p < t.size; p++ {
			stale[p] = p != t.rank &&
				now.UnixNano()-t.lastSeen[p].Load() > int64(t.opts.HeartbeatTimeout)
		}
		// Phase 2: condemn stale peers, probe the rest.
		for p := 0; p < t.size; p++ {
			if p == t.rank {
				continue
			}
			t.mu.Lock()
			tc := t.conns[p]
			dead := t.down[p] || t.done
			t.mu.Unlock()
			if dead || tc == nil {
				continue
			}
			if stale[p] {
				t.peerLost(p)
				continue
			}
			tc.mu.Lock()
			tc.c.SetWriteDeadline(now.Add(t.opts.HeartbeatInterval))
			_, err := tc.c.Write(hb)
			tc.c.SetWriteDeadline(time.Time{})
			tc.mu.Unlock()
			if err != nil {
				t.peerLost(p)
			}
		}
	}
}

// Rank implements Transport.
func (t *TCP) Rank() int { return t.rank }

// Size implements Transport.
func (t *TCP) Size() int { return t.size }

// Send implements Transport.
func (t *TCP) Send(to int, tag uint64, payload []float64) error {
	if to < 0 || to >= t.size {
		return fmt.Errorf("transport: rank %d out of range", to)
	}
	if to == t.rank {
		cp := bufpool.GetFloat64(len(payload))
		copy(cp, payload)
		if err := t.box.deliver(message{from: t.rank, tag: tag, payload: cp}); err != nil {
			bufpool.PutFloat64(cp)
			return err
		}
		return nil
	}
	t.mu.Lock()
	tc := t.conns[to]
	closed := t.done
	down := t.down[to]
	t.mu.Unlock()
	if closed || tc == nil {
		return ErrClosed
	}
	if down {
		return &PeerDownError{Peer: to}
	}

	// Header + a byte view of the caller's slice, one vectored write: no
	// staging buffer, no encode pass, no allocation. The kernel has copied
	// the payload when the write returns and the view is dropped under the
	// lock, so nothing retains the caller's slice.
	body := f64Bytes(payload)
	crc := payloadCRC(body)
	tc.mu.Lock()
	putFrameHeader(tc.hdr[:], tag, uint32(len(payload)), crc)
	var err error
	if len(body) == 0 {
		_, err = tc.c.Write(tc.hdr[:])
	} else {
		tc.iov = [2][]byte{tc.hdr[:], body}
		tc.bufs = tc.iov[:]
		_, err = tc.bufs.WriteTo(tc.c)
		tc.iov[1], tc.bufs = nil, nil
	}
	tc.mu.Unlock()
	if err != nil {
		t.peerLost(to)
		return &PeerDownError{Peer: to}
	}
	return nil
}

// Lend implements Transport as Send: the kernel has copied the payload when
// the write returns, so nothing is lent.
func (t *TCP) Lend(to int, tag uint64, payload []float64, _ *Loans) error {
	return t.Send(to, tag, payload)
}

// RecvInto implements Transport.
func (t *TCP) RecvInto(from int, tag uint64, dst []float64) (int, error) {
	return t.RecvIntoTimeout(from, tag, dst, 0)
}

// RecvIntoTimeout implements Transport.
func (t *TCP) RecvIntoTimeout(from int, tag uint64, dst []float64, timeout time.Duration) (int, error) {
	if from < 0 || from >= t.size {
		return 0, fmt.Errorf("transport: rank %d out of range", from)
	}
	return t.box.receiveInto(from, tag, dst, timeout)
}

// PurgeOp implements Transport.
func (t *TCP) PurgeOp(op uint32) { t.box.purgeOp(op) }

// FailPeer implements Transport: peer is declared dead and its connection
// torn down.
func (t *TCP) FailPeer(peer int) {
	if peer < 0 || peer >= t.size || peer == t.rank {
		return
	}
	t.peerLost(peer)
}

// AbortOp implements Transport.
func (t *TCP) AbortOp(op uint32) { t.box.abortOp(op, -1) }

// FailSelf implements Transport: it severs every connection, so each peer's
// read loop observes this rank as down — the same thing the fabric would see
// if the process exited — and marks every peer down locally so this
// endpoint's own pending operations fail fast.
func (t *TCP) FailSelf() {
	for r := 0; r < t.size; r++ {
		if r != t.rank {
			t.peerLost(r)
		}
	}
}

// tcpFrameElems is TCP's preferred frame size: 32 Ki elements (256 KiB).
// Every frame pays a writev, a read or two in the read loop, a CRC set-up
// and a mailbox hand-off; at 32 Ki those are noise, and a P = 3 group's ring
// step still pipelines over a few segments (the sweep is in DESIGN.md).
const tcpFrameElems = 32 << 10

// tcpReadBufBytes sizes each read loop's buffer: one page. A frame of up to
// 510 elements (header and body) arrives in one read syscall instead of two,
// and frames that arrive back to back share one: a signal, a reply and a
// small model's ring segment all fit. A larger body drains the buffer, then
// reads straight into its pooled payload, so the extra copy is bounded by the
// buffer, not the frame.
const tcpReadBufBytes = 4 << 10

// FrameElems implements Transport: the preferred size, capped at the
// receivers' MaxFrameElems so the ring never sends a frame a peer would
// reject as corruption (every endpoint of a mesh is built with the same
// options).
func (t *TCP) FrameElems() int { return min(tcpFrameElems, t.opts.MaxFrameElems) }

// SegmentElems implements Transport: every ring moves whole frames.
func (t *TCP) SegmentElems(int) int { return t.FrameElems() }

// DownPeers returns the ranks this endpoint currently considers dead.
func (t *TCP) DownPeers() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for p, d := range t.down {
		if d {
			out = append(out, p)
		}
	}
	return out
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	t.mu.Unlock()
	close(t.stopHB)
	t.hbWG.Wait()

	if t.ln != nil {
		t.ln.Close()
	}
	for _, tc := range t.conns {
		if tc != nil {
			tc.c.Close()
		}
	}
	t.box.close()
	return nil
}
