package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// recv receives one message of at most 1<<17 elements, returning exactly the
// delivered payload.
func recv(t Transport, from int, tag uint64) ([]float64, error) {
	buf := make([]float64, 1<<17)
	n, err := t.RecvInto(from, tag, buf)
	return buf[:n], err
}

func TestMemSendRecv(t *testing.T) {
	eps := NewMem(3)
	if err := eps[0].Send(1, 7, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := recv(eps[1], 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestMemRecvBlocksUntilSend(t *testing.T) {
	eps := NewMem(2)
	done := make(chan []float64, 1)
	go func() {
		p, err := recv(eps[1], 0, 1)
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Recv returned before Send")
	default:
	}
	if err := eps[0].Send(1, 1, []float64{42}); err != nil {
		t.Fatal(err)
	}
	p := <-done
	if p[0] != 42 {
		t.Fatalf("got %v", p)
	}
}

func TestMemPayloadCopied(t *testing.T) {
	eps := NewMem(2)
	payload := []float64{1}
	if err := eps[0].Send(1, 1, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 99 // mutation after Send must not affect delivery
	got, err := recv(eps[1], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("payload aliased: %v", got)
	}
}

func TestMemTagMatching(t *testing.T) {
	eps := NewMem(2)
	eps[0].Send(1, 2, []float64{2})
	eps[0].Send(1, 1, []float64{1})
	got, err := recv(eps[1], 0, 1)
	if err != nil || got[0] != 1 {
		t.Fatalf("tag 1: %v %v", got, err)
	}
	got, err = recv(eps[1], 0, 2)
	if err != nil || got[0] != 2 {
		t.Fatalf("tag 2: %v %v", got, err)
	}
}

func TestMemSelfSend(t *testing.T) {
	eps := NewMem(1)
	if err := eps[0].Send(0, 5, []float64{3.14}); err != nil {
		t.Fatal(err)
	}
	got, err := recv(eps[0], 0, 5)
	if err != nil || got[0] != 3.14 {
		t.Fatalf("self-send: %v %v", got, err)
	}
}

func TestMemDuplicateTagRejected(t *testing.T) {
	eps := NewMem(2)
	if err := eps[0].Send(1, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(1, 1, []float64{2}); err == nil {
		t.Fatal("duplicate (from,tag) accepted while first is undelivered")
	}
}

// Frames under a stream tag queue in arrival order, over Mem and TCP alike,
// where a second frame under any other undelivered (from, tag) is refused
// (TestMemDuplicateTagRejected, TestTCPDuplicateFrameFailsPeer). A failed
// peer's queued frames go with it.
func TestStreamTagQueuesInOrder(t *testing.T) {
	const tag = Stream | 0xC0<<48
	mem, tcp := NewMem(2), startTCPWorld(t, 2)
	for _, eps := range [][2]Transport{{mem[0], mem[1]}, {tcp[0], tcp[1]}} {
		for i := 1; i <= 3; i++ {
			if err := eps[1].Send(0, tag, []float64{float64(i)}); err != nil {
				t.Fatalf("%T: send %d: %v", eps[0], i, err)
			}
		}
		for i := 1; i <= 3; i++ {
			if got, err := recv(eps[0], 1, tag); err != nil || len(got) != 1 || got[0] != float64(i) {
				t.Fatalf("%T: receive %d = %v, %v; want [%d]", eps[0], i, got, err, i)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if err := mem[1].Send(0, tag, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	mem[0].FailPeer(1)
	if _, err := recv(mem[0], 1, tag); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("receive from a failed peer's stream: %v", err)
	}
	if box := mem[0].world[0]; len(box.pending)+len(box.queued) != 0 {
		t.Fatalf("a failed peer's stream frames stayed buffered: %d pending, %d queued", len(box.pending), len(box.queued))
	}
}

func TestMemCloseFailsPendingRecv(t *testing.T) {
	eps := NewMem(2)
	errc := make(chan error, 1)
	go func() {
		_, err := recv(eps[1], 0, 1)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	eps[1].Close()
	if err := <-errc; err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if err := eps[0].Send(1, 2, nil); err != ErrClosed {
		t.Fatalf("send to closed: %v", err)
	}
}

func TestMemRangeChecks(t *testing.T) {
	eps := NewMem(2)
	if err := eps[0].Send(5, 1, nil); err == nil {
		t.Fatal("out-of-range send accepted")
	}
	if _, err := recv(eps[0], -1, 1); err == nil {
		t.Fatal("out-of-range recv accepted")
	}
}

func freeAddrs(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func startTCPWorld(t testing.TB, n int) []*TCP {
	t.Helper()
	addrs := freeAddrs(t, n)
	eps := make([]*TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = NewTCP(i, addrs)
		}()
	}
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

func TestTCPMesh(t *testing.T) {
	eps := startTCPWorld(t, 3)
	// Every ordered pair exchanges a message.
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			payload := []float64{float64(from*10 + to)}
			if err := eps[from].Send(to, uint64(from*3+to), payload); err != nil {
				t.Fatalf("send %d->%d: %v", from, to, err)
			}
		}
	}
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			got, err := recv(eps[to], from, uint64(from*3+to))
			if err != nil {
				t.Fatalf("recv %d->%d: %v", from, to, err)
			}
			if got[0] != float64(from*10+to) {
				t.Fatalf("recv %d->%d: got %v", from, to, got)
			}
		}
	}
}

func TestTCPLargePayload(t *testing.T) {
	eps := startTCPWorld(t, 2)
	payload := make([]float64, 100_000)
	for i := range payload {
		payload[i] = float64(i) * 0.5
	}
	if err := eps[0].Send(1, 9, payload); err != nil {
		t.Fatal(err)
	}
	got, err := recv(eps[1], 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("element %d: %v != %v", i, got[i], payload[i])
		}
	}
}

func TestTCPInvalidRank(t *testing.T) {
	if _, err := NewTCP(3, []string{"a", "b"}); err == nil {
		t.Fatal("invalid rank accepted")
	}
	if _, err := NewTCP(-1, []string{"a"}); err == nil {
		t.Fatal("negative rank accepted")
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	eps := startTCPWorld(t, 2)
	const msgs = 50
	var wg sync.WaitGroup
	for i := 0; i < msgs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := eps[0].Send(1, uint64(i), []float64{float64(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < msgs; i++ {
		got, err := recv(eps[1], 0, uint64(i))
		if err != nil || got[0] != float64(i) {
			t.Fatalf("msg %d: %v %v", i, got, err)
		}
	}
}

func TestTCPSizeRank(t *testing.T) {
	eps := startTCPWorld(t, 2)
	for i, ep := range eps {
		if ep.Rank() != i || ep.Size() != 2 {
			t.Fatalf("rank/size: %d/%d", ep.Rank(), ep.Size())
		}
	}
}

func ExampleNewMem() {
	eps := NewMem(2)
	eps[0].Send(1, 1, []float64{1, 2})
	got, _ := recv(eps[1], 0, 1)
	fmt.Println(got)
	// Output: [1 2]
}
