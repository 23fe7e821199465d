package transport

import (
	"errors"
	"testing"
	"time"

	"partialreduce/internal/hetero"
)

// faultyMemWorld builds a Mem world wrapped by a Faulty layer under plan.
func faultyMemWorld(t *testing.T, n int, plan FaultPlan) []*Faulty {
	t.Helper()
	mems := NewMem(n)
	inner := make([]Transport, n)
	for i, ep := range mems {
		inner[i] = ep
	}
	eps, err := NewFaultyWorld(inner, plan)
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// recvTimes runs a bounded receive and reports whether it delivered.
func recvTimes(t *testing.T, ep *Faulty, from int, tag uint64, d time.Duration) ([]float64, bool) {
	t.Helper()
	buf := make([]float64, 8)
	n, err := ep.RecvIntoTimeout(from, tag, buf, d)
	if err != nil {
		if !IsTimeout(err) {
			t.Fatalf("recv tag %d: %v", tag, err)
		}
		return nil, false
	}
	return buf[:n], true
}

// TestFaultPlanValidateLinkFaults: the extended plan fields are validated up
// front — malformed link specs and partition windows are rejected before any
// endpoint exists.
func TestFaultPlanValidateLinkFaults(t *testing.T) {
	bad := []FaultPlan{
		{LinkFaults: map[[2]int]LinkFault{{0, 0}: {Sever: true}}},                    // self-link
		{LinkFaults: map[[2]int]LinkFault{{-1, 1}: {Sever: true}}},                   // negative rank
		{LinkFaults: map[[2]int]LinkFault{{0, 1}: {DropFirst: -1}}},                  // negative count
		{Partitions: hetero.PartitionSchedule{{Ranks: nil, From: 0}}},                // empty rank set
		{Partitions: hetero.PartitionSchedule{{Ranks: []int{1, 1}, From: 0}}},        // duplicate rank
		{Partitions: hetero.PartitionSchedule{{Ranks: []int{-3}, From: 0}}},          // negative rank
		{Partitions: hetero.PartitionSchedule{{Ranks: []int{1}, From: -1}}},          // negative start
		{Partitions: hetero.PartitionSchedule{{Ranks: []int{1}, From: 1, Until: 1}}}, // empty window
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
	good := FaultPlan{
		LinkFaults: map[[2]int]LinkFault{
			{0, 1}: {DropFirst: 3},
			{2, 0}: {Sever: true},
		},
		Partitions: hetero.PartitionSchedule{
			{Ranks: []int{1, 2}, From: 1, Until: 2},
			{Ranks: []int{0}, From: 0}, // Until 0: never heals
		},
	}
	if err := good.Validate(4); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	// World construction enforces in-range partition/link ranks for its size.
	mems := NewMem(2)
	inner := []Transport{mems[0], mems[1]}
	if _, err := NewFaultyWorld(inner, FaultPlan{
		Partitions: hetero.PartitionSchedule{{Ranks: []int{5}, From: 0}},
	}); err == nil {
		t.Fatal("partition rank beyond world size accepted")
	}
	if _, err := NewFaultyWorld(inner, FaultPlan{
		LinkFaults: map[[2]int]LinkFault{{0, 7}: {Sever: true}},
	}); err == nil {
		t.Fatal("link rank beyond world size accepted")
	}
}

// TestFaultySeverHealLink: severing a directed link silently drops exactly
// that direction's traffic; the reverse direction still flows; HealLink
// restores delivery.
func TestFaultySeverHealLink(t *testing.T) {
	eps := faultyMemWorld(t, 2, FaultPlan{})
	eps[0].SeverLink(0, 1)

	if err := eps[0].Send(1, 1, []float64{1}); err != nil {
		t.Fatalf("send on severed link errored locally: %v", err)
	}
	if _, ok := recvTimes(t, eps[1], 0, 1, 100*time.Millisecond); ok {
		t.Fatal("message crossed a severed link")
	}
	// Reverse direction unaffected.
	if err := eps[1].Send(0, 2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if got, ok := recvTimes(t, eps[0], 1, 2, time.Second); !ok || got[0] != 2 {
		t.Fatalf("reverse direction broken: %v %v", got, ok)
	}

	eps[0].HealLink(0, 1)
	if err := eps[0].Send(1, 3, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if got, ok := recvTimes(t, eps[1], 0, 3, time.Second); !ok || got[0] != 3 {
		t.Fatalf("healed link did not deliver: %v %v", got, ok)
	}
}

// TestFaultyLinkDropFirst: a DropFirst budget loses exactly the first k
// messages on the link and then gets out of the way — the fault shape
// collective retry is tested against.
func TestFaultyLinkDropFirst(t *testing.T) {
	eps := faultyMemWorld(t, 2, FaultPlan{
		LinkFaults: map[[2]int]LinkFault{{0, 1}: {DropFirst: 2}},
	})
	for i := 0; i < 4; i++ {
		if err := eps[0].Send(1, uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tag := range []uint64{0, 1} {
		if _, ok := recvTimes(t, eps[1], 0, tag, 100*time.Millisecond); ok {
			t.Fatalf("message %d survived the DropFirst budget", tag)
		}
	}
	for _, tag := range []uint64{2, 3} {
		if got, ok := recvTimes(t, eps[1], 0, tag, time.Second); !ok || got[0] != float64(tag) {
			t.Fatalf("message %d past the budget lost: %v %v", tag, got, ok)
		}
	}
}

// TestFaultyTimedPartition: during the window, traffic crossing the cut is
// lost in both directions while same-side traffic flows; after Until the
// partition heals by itself.
func TestFaultyTimedPartition(t *testing.T) {
	const window = 400 * time.Millisecond
	eps := faultyMemWorld(t, 3, FaultPlan{
		Partitions: hetero.PartitionSchedule{{Ranks: []int{2}, From: 0, Until: window.Seconds()}},
	})

	// Crossing the cut, both directions: lost.
	if err := eps[0].Send(2, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := eps[2].Send(0, 2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvTimes(t, eps[2], 0, 1, 50*time.Millisecond); ok {
		t.Fatal("message crossed an active partition")
	}
	if _, ok := recvTimes(t, eps[0], 2, 2, 50*time.Millisecond); ok {
		t.Fatal("message crossed an active partition (reverse)")
	}
	// Same side: flows.
	if err := eps[0].Send(1, 3, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if got, ok := recvTimes(t, eps[1], 0, 3, time.Second); !ok || got[0] != 3 {
		t.Fatalf("same-side traffic blocked: %v %v", got, ok)
	}

	// After the window the cut heals without intervention.
	time.Sleep(window + 50*time.Millisecond)
	if err := eps[0].Send(2, 4, []float64{4}); err != nil {
		t.Fatal(err)
	}
	if got, ok := recvTimes(t, eps[2], 0, 4, time.Second); !ok || got[0] != 4 {
		t.Fatalf("partition did not heal: %v %v", got, ok)
	}
}

// TestNewFaultyEndpointPartition: the single-endpoint constructor (the
// deployment shape preduce-live uses: each process wraps only its own
// transport) applies a partition from the wrapped rank's perspective —
// traffic to and from the other side is dropped while the window is active.
func TestNewFaultyEndpointPartition(t *testing.T) {
	mems := NewMem(2)
	ep, err := NewFaultyEndpoint(mems[1], FaultPlan{
		Partitions: hetero.PartitionSchedule{{Ranks: []int{1}, From: 0, Until: 0.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Outbound across the cut: dropped at the wrapped endpoint.
	if err := ep.Send(0, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 4)
	if _, err := mems[0].RecvIntoTimeout(1, 1, buf, 50*time.Millisecond); err == nil {
		t.Fatal("endpoint partition let outbound traffic through")
	} else if !IsTimeout(err) {
		t.Fatal(err)
	}
	time.Sleep(350 * time.Millisecond)
	if err := ep.Send(0, 2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if n, err := mems[0].RecvIntoTimeout(1, 2, buf, time.Second); err != nil || n != 1 || buf[0] != 2 {
		t.Fatalf("healed endpoint partition: n=%d err=%v", n, err)
	}

	// Malformed plans are rejected by the endpoint constructor too.
	if _, err := NewFaultyEndpoint(mems[1], FaultPlan{CrashAfterSends: map[int]int{2: 1}}); err == nil {
		t.Fatal("bad endpoint plan accepted")
	}
}

// TestRecvIntoTimeoutSemantics: a bounded receive delivers a waiting message
// immediately, fails with ErrTimeout (carrying the peer and tag) when none
// arrives, and timeout <= 0 is an unbounded receive.
func TestRecvIntoTimeoutSemantics(t *testing.T) {
	mems := NewMem(2)
	if err := mems[0].Send(1, 9, []float64{4.5}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 2)
	if n, err := mems[1].RecvIntoTimeout(0, 9, buf, 50*time.Millisecond); err != nil || n != 1 || buf[0] != 4.5 {
		t.Fatalf("waiting message not delivered: n=%d err=%v", n, err)
	}
	start := time.Now()
	_, err := mems[1].RecvIntoTimeout(0, 10, buf, 80*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("want timeout, got %v", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || te.Peer != 0 || te.Tag != 10 {
		t.Fatalf("timeout error lacks context: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout wildly overshot")
	}
	// timeout <= 0 must still deliver (unbounded path).
	if err := mems[0].Send(1, 11, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if n, err := mems[1].RecvIntoTimeout(0, 11, buf, 0); err != nil || n != 1 {
		t.Fatalf("unbounded receive: n=%d err=%v", n, err)
	}
}
