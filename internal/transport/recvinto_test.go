package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var (
	_ Transport = (*Mem)(nil)
	_ Transport = (*TCP)(nil)
	_ Transport = (*Faulty)(nil)
)

// recvIntoWorld builds a 2-endpoint world of the named kind and returns the
// generic Transport views (rank 0 and rank 1).
func recvIntoWorld(t *testing.T, kind string) (Transport, Transport) {
	t.Helper()
	switch kind {
	case "mem":
		eps := NewMem(2)
		return eps[0], eps[1]
	case "tcp":
		eps := startTCPWorld(t, 2)
		return eps[0], eps[1]
	case "faulty":
		mem := NewMem(2)
		inner := []Transport{mem[0], mem[1]}
		eps, err := NewFaultyWorld(inner, FaultPlan{})
		if err != nil {
			t.Fatal(err)
		}
		return eps[0], eps[1]
	default:
		t.Fatalf("unknown transport kind %q", kind)
		return nil, nil
	}
}

// TestRecvIntoAcrossTransports pins the RecvInto contract on every transport
// implementation: exact-size buffers fill completely, oversized buffers
// report the shorter payload length, undersized buffers fail with
// ErrShortBuffer (and consume the message), and empty payloads are legal.
func TestRecvIntoAcrossTransports(t *testing.T) {
	for _, kind := range []string{"mem", "tcp", "faulty"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			a, b := recvIntoWorld(t, kind)

			// Exact-size buffer.
			if err := a.Send(1, 1, []float64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, 3)
			n, err := b.RecvInto(0, 1, dst)
			if err != nil || n != 3 {
				t.Fatalf("exact: n=%d err=%v", n, err)
			}
			if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
				t.Fatalf("exact: dst=%v", dst)
			}

			// Oversized buffer: n reports the payload length, the tail is
			// untouched.
			if err := a.Send(1, 2, []float64{7, 8}); err != nil {
				t.Fatal(err)
			}
			long := []float64{-1, -1, -1, -1}
			n, err = b.RecvInto(0, 2, long)
			if err != nil || n != 2 {
				t.Fatalf("long: n=%d err=%v", n, err)
			}
			if long[0] != 7 || long[1] != 8 || long[2] != -1 || long[3] != -1 {
				t.Fatalf("long: dst=%v", long)
			}

			// Undersized buffer: typed error, message consumed (a retry with
			// the same tag must not see it again).
			if err := a.Send(1, 3, []float64{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
			if _, err := b.RecvInto(0, 3, make([]float64, 2)); !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("short: err=%v, want ErrShortBuffer", err)
			}
			// The next message on the same tag arrives cleanly.
			if err := a.Send(1, 3, []float64{42}); err != nil {
				t.Fatal(err)
			}
			one := make([]float64, 1)
			if n, err := b.RecvInto(0, 3, one); err != nil || n != 1 || one[0] != 42 {
				t.Fatalf("after short: n=%d dst=%v err=%v", n, one, err)
			}

			// Empty payload into a nil buffer (the Barrier wire format).
			if err := a.Send(1, 4, nil); err != nil {
				t.Fatal(err)
			}
			if n, err := b.RecvInto(0, 4, nil); err != nil || n != 0 {
				t.Fatalf("empty: n=%d err=%v", n, err)
			}
		})
	}
}

// TestOpControlAcrossTransports pins the rest of the Transport contract on
// every implementation: a timed receive that expires consumes nothing,
// PurgeOp drops an op's buffered frames without poisoning the op, and
// AbortOp fails the op's parked and future receives and drops its
// stragglers.
func TestOpControlAcrossTransports(t *testing.T) {
	const purged, aborted, other = uint64(5) << 24, uint64(6) << 24, uint64(7) << 24
	for _, kind := range []string{"mem", "tcp", "faulty"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			a, b := recvIntoWorld(t, kind)
			dst := make([]float64, 1)
			// flush returns once everything a sent before it is buffered at
			// b (frames from one sender arrive in order).
			flush := func(tag uint64) {
				t.Helper()
				if err := a.Send(1, tag, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := b.RecvInto(0, tag, nil); err != nil {
					t.Fatal(err)
				}
			}

			// Expiry consumes nothing: the message that arrives afterwards
			// is still delivered.
			if _, err := b.RecvIntoTimeout(0, other|1, dst, 20*time.Millisecond); !IsTimeout(err) {
				t.Fatalf("idle timed receive: err=%v, want timeout", err)
			}
			if err := a.Send(1, other|1, []float64{3}); err != nil {
				t.Fatal(err)
			}
			if n, err := b.RecvIntoTimeout(0, other|1, dst, 5*time.Second); err != nil || n != 1 || dst[0] != 3 {
				t.Fatalf("after expiry: n=%d dst=%v err=%v", n, dst, err)
			}

			// PurgeOp: the buffered frame is gone, the op still usable.
			if err := a.Send(1, purged|1, []float64{1}); err != nil {
				t.Fatal(err)
			}
			flush(other | 2)
			b.PurgeOp(uint32(purged >> 24))
			if _, err := b.RecvIntoTimeout(0, purged|1, dst, 20*time.Millisecond); !IsTimeout(err) {
				t.Fatalf("purged frame: err=%v, want timeout", err)
			}
			if err := a.Send(1, purged|1, []float64{2}); err != nil {
				t.Fatalf("resend under a purged tag: %v", err)
			}
			if n, err := b.RecvIntoTimeout(0, purged|1, dst, 5*time.Second); err != nil || n != 1 || dst[0] != 2 {
				t.Fatalf("after purge: n=%d dst=%v err=%v", n, dst, err)
			}

			// AbortOp: the parked receive wakes with the typed error, later
			// receives fail at once, and a straggler frame is dropped.
			parked := make(chan error, 1)
			go func() {
				_, err := b.RecvInto(0, aborted|1, make([]float64, 1))
				parked <- err
			}()
			time.Sleep(10 * time.Millisecond) // let it park; either order must fail
			b.AbortOp(uint32(aborted >> 24))
			var oa *OpAbortedError
			if err := <-parked; !errors.As(err, &oa) || oa.Op != uint32(aborted>>24) {
				t.Fatalf("parked receive after abort: %v", err)
			}
			if err := a.Send(1, aborted|2, []float64{9}); err != nil {
				t.Fatalf("straggler send: %v", err)
			}
			flush(other | 3)
			if _, err := b.RecvIntoTimeout(0, aborted|2, dst, time.Second); !errors.Is(err, ErrOpAborted) {
				t.Fatalf("receive on aborted op: %v", err)
			}
		})
	}
}

// TestTCPDuplicateFrameFailsPeer: a second frame under a (from, tag) still
// undelivered is a protocol violation by that peer. The read loop must
// condemn the peer — not exit quietly with the socket open, which deafens
// this endpoint to everything the peer sends afterwards.
func TestTCPDuplicateFrameFailsPeer(t *testing.T) {
	eps := startTCPWorld(t, 2)
	for i := 0; i < 2; i++ {
		if err := eps[1].Send(0, 7, []float64{1}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// The connection may already be torn down under this one.
	if err := eps[1].Send(0, 8, []float64{2}); err != nil && !IsFailure(err) {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := eps[0].RecvIntoTimeout(1, 8, make([]float64, 1), 5*time.Second)
	var pd *PeerDownError
	if !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("receive behind a duplicate frame: %v after %v, want peer 1 down", err, time.Since(start))
	}
	if down := eps[0].DownPeers(); len(down) != 1 || down[0] != 1 {
		t.Fatalf("DownPeers() = %v, want [1]", down)
	}
}

// TestRecvIntoShortBufferBlocked covers the waiter path (receiver parked
// before the send) for the short-buffer error, which the pending-queue path
// above does not reach.
func TestRecvIntoShortBufferBlocked(t *testing.T) {
	eps := NewMem(2)
	errc := make(chan error, 1)
	ready := make(chan struct{})
	go func() {
		close(ready)
		_, err := eps[1].RecvInto(0, 9, make([]float64, 1))
		errc <- err
	}()
	<-ready
	if err := eps[0].Send(1, 9, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("err=%v, want ErrShortBuffer", err)
	}
}

// assertSendRecvAllocFree is the data-plane allocation gate at the transport
// layer: after warm-up, a Send on a / RecvInto on b round trip touches only
// pooled memory, both for a control-sized payload (3 elements: a signal, a
// frame the TCP read loop takes in one read) and for a ring segment (4096,
// which over TCP reads past the read loop's buffer). AllocsPerRun counts the
// whole process, so a TCP read loop's allocations are included.
func assertSendRecvAllocFree(t *testing.T, a, b Transport) {
	for _, n := range []int{3, 4096} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if raceEnabled {
				t.Skip("race-detector instrumentation allocates")
			}
			payload := make([]float64, n)
			dst := make([]float64, n)
			step := func() {
				if err := a.Send(b.Rank(), 7, payload); err != nil {
					t.Fatal(err)
				}
				if _, err := b.RecvInto(a.Rank(), 7, dst); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				step() // warm the pool (and, over TCP, the socket's iovec cache and the poller)
			}
			if allocs := testing.AllocsPerRun(200, step); allocs > 0 {
				t.Fatalf("steady-state Send/RecvInto of %d elements allocates %.2f times per round trip", n, allocs)
			}
		})
	}
}

// TestRecvIntoSteadyStateAllocFree gates the Mem round trip.
func TestRecvIntoSteadyStateAllocFree(t *testing.T) {
	a, b := recvIntoWorld(t, "mem")
	assertSendRecvAllocFree(t, a, b)
}

// TestTCPSendRecvSteadyStateAllocFree gates the loopback TCP round trip: the
// vectored send from the caller's slice, the read loop's receive into a
// pooled payload and the mailbox hand-off.
func TestTCPSendRecvSteadyStateAllocFree(t *testing.T) {
	a, b := recvIntoWorld(t, "tcp")
	assertSendRecvAllocFree(t, a, b)
}

// TestRecvIntoConcurrent exercises the direct-delivery fast path under -race:
// many goroutine pairs stream segments through one endpoint pair.
func TestRecvIntoConcurrent(t *testing.T) {
	eps := NewMem(2)
	const pairs, rounds = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		p := p
		wg.Add(2)
		go func() {
			defer wg.Done()
			buf := make([]float64, 64)
			for r := 0; r < rounds; r++ {
				for i := range buf {
					buf[i] = float64(p*rounds + r)
				}
				if err := eps[0].Send(1, uint64(p*rounds+r), buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			dst := make([]float64, 64)
			for r := 0; r < rounds; r++ {
				n, err := eps[1].RecvInto(0, uint64(p*rounds+r), dst)
				if err != nil || n != 64 {
					t.Errorf("pair %d round %d: n=%d err=%v", p, r, n, err)
					return
				}
				if dst[0] != float64(p*rounds+r) {
					t.Errorf("pair %d round %d: got %v", p, r, dst[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}
