package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakePeer dials each listed (rank, addr) target and completes the mesh
// hello as rank `as`, returning one raw connection per target. It stands in
// for a real endpoint so tests can write arbitrary bytes — corrupt frames,
// or nothing at all (a paused process).
func fakePeer(t *testing.T, as int, targets map[int]string) map[int]net.Conn {
	t.Helper()
	conns := make(map[int]net.Conn, len(targets))
	for rank, addr := range targets {
		// Retry while the target's listener comes up, as real mesh
		// formation does.
		c, err := dialRetry(addr, time.Now().Add(10*time.Second))
		if err != nil {
			t.Fatalf("fake rank %d dial rank %d: %v", as, rank, err)
		}
		var hello [4]byte
		binary.LittleEndian.PutUint32(hello[:], uint32(as))
		if _, err := c.Write(hello[:]); err != nil {
			t.Fatalf("fake rank %d hello to rank %d: %v", as, rank, err)
		}
		t.Cleanup(func() { c.Close() })
		conns[rank] = c
	}
	return conns
}

// startPartialTCPWorld starts real endpoints for ranks [0, real) of an
// n-rank world whose remaining ranks the caller will fake with fakePeer.
// The fake dialer runs concurrently with mesh formation, as a real rank
// would.
func startPartialTCPWorld(t *testing.T, n, real int, opts TCPOptions, fake func(addrs []string)) []*TCP {
	t.Helper()
	addrs := freeAddrs(t, n)
	eps := make([]*TCP, real)
	errs := make([]error, real)
	var wg sync.WaitGroup
	for i := 0; i < real; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = NewTCPOpts(i, addrs, opts)
		}()
	}
	fake(addrs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

// TestTCPDuplicateHelloFailsFormation: the mesh is formed when every peer is
// attached, not when enough connections were accepted. A rank that says hello
// twice (a crash-looping peer redialing) must not stand in for the rank that
// never dialed: formation fails naming the duplicate, instead of succeeding
// with a hole that later surfaces as ErrClosed on Send.
func TestTCPDuplicateHelloFailsFormation(t *testing.T) {
	addrs := freeAddrs(t, 3)
	done := make(chan error, 1)
	go func() {
		ep, err := NewTCPOpts(0, addrs, TCPOptions{MeshTimeout: 10 * time.Second})
		if err == nil {
			ep.Close()
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		fakePeer(t, 1, map[int]string{0: addrs[0]})
	}
	err := <-done
	if err == nil {
		t.Fatal("mesh of 3 formed from two hellos of rank 1 and none of rank 2")
	}
	for _, want := range []string{"duplicate hello from rank 1", "missing peers [2]"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("formation error %q does not say %q", err, want)
		}
	}
}

// TestTCPCorruptFrameFailsOnlySender: a frame whose payload fails the CRC
// check condemns the sending peer alone; traffic between the other ranks is
// unaffected.
func TestTCPCorruptFrameFailsOnlySender(t *testing.T) {
	var conns map[int]net.Conn
	eps := startPartialTCPWorld(t, 3, 2, TCPOptions{}, func(addrs []string) {
		conns = fakePeer(t, 2, map[int]string{0: addrs[0], 1: addrs[1]})
	})

	// A well-formed frame first: the connection itself is good.
	if _, err := conns[0].Write(EncodeFrameInto(nil, 100, []float64{1})); err != nil {
		t.Fatal(err)
	}
	if got, err := recv(eps[0], 2, 100); err != nil || got[0] != 1 {
		t.Fatalf("pristine frame from fake peer: %v %v", got, err)
	}

	// Now a frame with one payload bit flipped after encoding.
	bad := EncodeFrameInto(nil, 101, []float64{2, 3})
	bad[frameHeaderSize+3] ^= 0x40
	if _, err := conns[0].Write(bad); err != nil {
		t.Fatal(err)
	}

	// Rank 0 must declare peer 2 (and only peer 2) down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		down := eps[0].DownPeers()
		if len(down) == 1 && down[0] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("corrupt frame not isolated to sender: down=%v", down)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rank 1 saw no corruption and keeps peer 2; rank 0 <-> 1 still works.
	if down := eps[1].DownPeers(); len(down) != 0 {
		t.Fatalf("uninvolved rank condemned peers: %v", down)
	}
	if err := eps[0].Send(1, 102, []float64{7}); err != nil {
		t.Fatalf("survivor send: %v", err)
	}
	if got, err := recv(eps[1], 0, 102); err != nil || got[0] != 7 {
		t.Fatalf("survivor recv: %v %v", got, err)
	}
}

// TestTCPFrameBurstAcrossReadBuffer: the read loop reads through a
// tcpReadBufBytes buffer, so frames share reads and straddle its edge. One
// write carries frames on both sides of the 510-element boundary (header plus
// body fill the buffer), an empty non-heartbeat frame, a 32 Ki-element frame
// (whose body is read past the buffer) and a heartbeat; a second write splits
// one header across two writes. Every frame arrives bit-exact under its own
// tag, the heartbeat is never delivered, and a bad checksum after all that
// still fails only the sender, and only at the rank it was sent to.
func TestTCPFrameBurstAcrossReadBuffer(t *testing.T) {
	edge := (tcpReadBufBytes - frameHeaderSize) / 8 // 510: the largest one-read frame
	var conns map[int]net.Conn
	eps := startPartialTCPWorld(t, 3, 2, TCPOptions{}, func(addrs []string) {
		conns = fakePeer(t, 2, map[int]string{0: addrs[0], 1: addrs[1]})
	})

	want := map[uint64][]float64{}
	var burst []byte
	for i, n := range []int{0, 1, edge - 1, edge, edge + 1, 32 << 10} {
		tag := uint64(200 + i)
		want[tag] = awkwardPayload(n)
		burst = EncodeFrameInto(burst, tag, want[tag])
		if n == edge-1 {
			burst = EncodeFrameInto(burst, hbTag, nil)
		}
	}
	if _, err := conns[0].Write(burst); err != nil {
		t.Fatal(err)
	}
	const splitTag = 210
	want[splitTag] = awkwardPayload(3)
	split := EncodeFrameInto(nil, splitTag, want[splitTag])
	for _, part := range [][]byte{split[:7], split[7:]} {
		if _, err := conns[0].Write(part); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	dst := make([]float64, 32<<10)
	for tag, payload := range want {
		n, err := eps[0].RecvIntoTimeout(2, tag, dst, 10*time.Second)
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		if err := sameBits(dst[:n], payload); err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
	}
	// The heartbeat preceded the split frame on the stream, so had it been
	// delivered it would be in the mailbox by now.
	if _, err := eps[0].RecvIntoTimeout(2, hbTag, dst, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("heartbeat receive: err=%v, want a timeout", err)
	}

	bad := EncodeFrameInto(nil, 211, []float64{2, 3})
	bad[frameHeaderSize+9] ^= 0x02
	if _, err := conns[0].Write(bad); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if down := eps[0].DownPeers(); len(down) == 1 && down[0] == 2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("bad frame after a burst not isolated to its sender: down=%v", down)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := conns[1].Write(EncodeFrameInto(nil, 212, []float64{9})); err != nil {
		t.Fatal(err)
	}
	if got, err := recv(eps[1], 2, 212); err != nil || got[0] != 9 {
		t.Fatalf("rank 1 lost peer 2 over rank 0's bad frame: %v %v", got, err)
	}
	if down := eps[1].DownPeers(); len(down) != 0 {
		t.Fatalf("uninvolved rank condemned peers: %v", down)
	}
}

// TestTCPPausedPeerDetectedWithinTimeout pins the failure detector's
// latency: a peer that stops sending entirely (a paused process — its
// socket stays open, heartbeat writes to it still succeed) is detected
// within one HeartbeatTimeout plus two sweep intervals. The staleness
// verdict for every peer is taken against a single clock reading at the
// top of each sweep, so a slow probe write to one peer cannot defer
// another's detection.
func TestTCPPausedPeerDetectedWithinTimeout(t *testing.T) {
	const (
		interval = 25 * time.Millisecond
		timeout  = 200 * time.Millisecond
	)
	eps := startPartialTCPWorld(t, 2, 1, TCPOptions{
		HeartbeatInterval: interval,
		HeartbeatTimeout:  timeout,
	}, func(addrs []string) {
		fakePeer(t, 1, map[int]string{0: addrs[0]})
	})
	start := time.Now()

	// The fake peer never writes a byte after the hello. Poll for the
	// detection and bound its latency from both sides.
	var detected time.Duration
	for {
		if down := eps[0].DownPeers(); len(down) == 1 && down[0] == 1 {
			detected = time.Since(start)
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("paused peer never detected")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if detected < timeout {
		t.Fatalf("peer condemned after %v, before the %v timeout elapsed", detected, timeout)
	}
	if limit := timeout + 2*interval + 150*time.Millisecond; detected > limit {
		t.Fatalf("detection took %v, want within %v (one timeout + sweep slack)", detected, limit)
	}
}
