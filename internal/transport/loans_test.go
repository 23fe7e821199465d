package transport

import (
	"testing"
	"time"

	"partialreduce/internal/bufpool"
)

// lentPayload is a payload whose capacity is a pool size class, so a failure
// path that pooled it by mistake would hand its array out again.
func lentPayload(v float64) []float64 {
	p := make([]float64, 64)
	for i := range p {
		p[i] = v + float64(i)
	}
	return p
}

// settles runs l.Settle(timeout) and fails the test unless it returns within
// a second.
func settles(t *testing.T, l *Loans, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		l.Settle(timeout)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Settle still waiting after 1s")
	}
}

// lendParked lends a fresh payload from rank 0 to rank 1 of eps under tag
// while nobody waits for it, so the mailbox parks a reference.
func lendParked(t *testing.T, eps []*Mem, tag uint64, loans *Loans) []float64 {
	t.Helper()
	p := lentPayload(1)
	if err := eps[0].Lend(1, tag, p, loans); err != nil {
		t.Fatal(err)
	}
	if got := loans.out.Load(); got != 1 {
		t.Fatalf("%d loans out after one parked Lend, want 1", got)
	}
	return p
}

// TestLendOverwriteAfterSettle: Settle waits for the receive that copies the
// loan out, so a sender that overwrites its payload once Settle returns
// cannot corrupt what arrives.
func TestLendOverwriteAfterSettle(t *testing.T) {
	eps := NewMem(2)
	var loans Loans
	p := lendParked(t, eps, 5, &loans)
	got := make([]float64, len(p))
	recvd := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond) // the sender is in Settle by now
		_, err := eps[1].RecvInto(0, 5, got)
		recvd <- err
	}()
	settles(t, &loans, 0)
	for i := range p {
		p[i] = -1
	}
	if err := <-recvd; err != nil {
		t.Fatal(err)
	}
	if want := lentPayload(1); diffAt(got, want) >= 0 {
		t.Fatalf("received %v after the sender overwrote its settled payload, want %v", got[:4], want[:4])
	}
}

// TestSettleDeadlineCopiesLoan: a loan still parked when Settle's deadline
// expires becomes a pooled copy, which a receive made after the sender has
// overwritten its payload still reads intact.
func TestSettleDeadlineCopiesLoan(t *testing.T) {
	eps := NewMem(2)
	var loans Loans
	p := lendParked(t, eps, 5, &loans)
	settles(t, &loans, 5*time.Millisecond)
	for i := range p {
		p[i] = -1
	}
	got := make([]float64, len(p))
	if _, err := eps[1].RecvInto(0, 5, got); err != nil {
		t.Fatal(err)
	}
	if want := lentPayload(1); diffAt(got, want) >= 0 {
		t.Fatalf("received %v after the deadline copied the loan, want %v", got[:4], want[:4])
	}
}

// TestLoanReleasedByEveryReceiverPath: Settle returns once the receiver
// consumes the loan or any failure path there drops it, and a dropped loan's
// array never comes back out of the pool.
func TestLoanReleasedByEveryReceiverPath(t *testing.T) {
	const tag = 3<<24 | 1 // op 3
	for _, c := range []struct {
		name string
		at   func(rx *Mem)
	}{
		{"consume", func(rx *Mem) {
			if _, err := rx.RecvInto(0, tag, make([]float64, 64)); err != nil {
				t.Error(err)
			}
		}},
		{"FailSelf", func(rx *Mem) { rx.FailSelf() }},
		{"Close", func(rx *Mem) { rx.Close() }},
		{"AbortOp", func(rx *Mem) { rx.AbortOp(3) }},
		{"PurgeOp", func(rx *Mem) { rx.PurgeOp(3) }},
		{"FailPeer", func(rx *Mem) { rx.FailPeer(0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			eps := NewMem(2)
			var loans Loans
			p := lendParked(t, eps, tag, &loans)
			c.at(eps[1])
			settles(t, &loans, 0)
			for i := 0; i < 8; i++ {
				if b := bufpool.GetFloat64(len(p)); &b[:1][0] == &p[0] {
					t.Fatalf("the pool handed out the lent array after %s", c.name)
				}
			}
		})
	}
}

// TestLendToAbortedOpLendsNothing: a frame of an op the receiver aborted is
// dropped on arrival, before it is recorded as a loan.
func TestLendToAbortedOpLendsNothing(t *testing.T) {
	eps := NewMem(2)
	eps[1].AbortOp(3)
	var loans Loans
	p := lentPayload(1)
	if err := eps[0].Lend(1, 3<<24|1, p, &loans); err != nil {
		t.Fatal(err)
	}
	settles(t, &loans, 0)
	for i := 0; i < 8; i++ {
		if b := bufpool.GetFloat64(len(p)); &b[:1][0] == &p[0] {
			t.Fatal("the pool handed out an array lent to an aborted op")
		}
	}
}

// TestLenderFailingPeerCopiesLoan: a lender that declares its receiver dead
// gets its loans back at once as pooled copies; it never waits on a rank it
// wrote off.
func TestLenderFailingPeerCopiesLoan(t *testing.T) {
	eps := NewMem(2)
	var loans Loans
	p := lendParked(t, eps, 5, &loans)
	eps[0].FailPeer(1)
	settles(t, &loans, 0)
	for i := range p {
		p[i] = -1
	}
	got := make([]float64, len(p))
	if _, err := eps[1].RecvInto(0, 5, got); err != nil {
		t.Fatal(err)
	}
	if want := lentPayload(1); diffAt(got, want) >= 0 {
		t.Fatalf("received %v after the lender failed its peer, want %v", got[:4], want[:4])
	}
}

// TestFaultyDropLeavesNothingToSettle: a frame the fault plan drops, on a
// severed link or inside a link's DropFirst budget, was never lent, so Settle
// has nothing to wait for and nothing arrives.
func TestFaultyDropLeavesNothingToSettle(t *testing.T) {
	for name, plan := range map[string]FaultPlan{
		"sever": {LinkFaults: map[[2]int]LinkFault{{0, 1}: {Sever: true}}},
		"link":  {LinkFaults: map[[2]int]LinkFault{{0, 1}: {DropFirst: 1}}},
	} {
		t.Run(name, func(t *testing.T) {
			mem := NewMem(2)
			eps, err := NewFaultyWorld([]Transport{mem[0], mem[1]}, plan)
			if err != nil {
				t.Fatal(err)
			}
			var loans Loans
			if err := eps[0].Lend(1, 5, lentPayload(1), &loans); err != nil {
				t.Fatal(err)
			}
			settles(t, &loans, 0)
			if _, err := eps[1].RecvIntoTimeout(0, 5, make([]float64, 64), 5*time.Millisecond); !IsTimeout(err) {
				t.Fatalf("a dropped frame was received: %v", err)
			}
		})
	}
}

// TestLendStreamTagCopies: a stream's frames queue, so Lend copies them as
// Send does and lends nothing.
func TestLendStreamTagCopies(t *testing.T) {
	eps := NewMem(2)
	var loans Loans
	p := lentPayload(1)
	if err := eps[0].Lend(1, Stream|5, p, &loans); err != nil {
		t.Fatal(err)
	}
	if got := loans.out.Load(); got != 0 {
		t.Fatalf("%d loans out after a stream Lend, want 0", got)
	}
	p[0] = -1
	got := make([]float64, len(p))
	if _, err := eps[1].RecvInto(0, Stream|5, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("stream frame read %v after the sender overwrote it, want 1", got[0])
	}
}

// TestLendSettleSteadyStateAllocFree gates a Lend that parks, the RecvInto
// that copies it out and the Settle: no allocation once warm.
func TestLendSettleSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	eps := NewMem(2)
	var loans Loans
	payload, dst := make([]float64, 4096), make([]float64, 4096)
	cycle := func() {
		if err := eps[0].Lend(1, 7, payload, &loans); err != nil {
			t.Fatal(err)
		}
		if _, err := eps[1].RecvInto(0, 7, dst); err != nil {
			t.Fatal(err)
		}
		loans.Settle(0)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
		t.Fatalf("steady-state Lend/RecvInto/Settle allocates %.2f times per cycle", allocs)
	}
}

// diffAt returns the first index where got and want differ, or -1.
func diffAt(got, want []float64) int {
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}
