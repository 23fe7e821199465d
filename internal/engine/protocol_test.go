package engine

import (
	"testing"
)

// lossyWire is the control plane between one worker's Signaler and the
// service core, as an in-test channel: ready frames reach the core at once
// unless lost, and replies queue in arrival order for the worker to read.
type lossyWire struct {
	replies   [][2]uint64 // (seq, epoch) of each delivered reply, oldest first
	loseReply bool        // the next reply is lost
}

func (l *lossyWire) Reply(_ int, seq uint64, d Directive) {
	if l.loseReply {
		l.loseReply = false
		return
	}
	l.replies = append(l.replies, [2]uint64{seq, d.Epoch})
}
func (l *lossyWire) Abort(int, uint32, int)     {}
func (l *lossyWire) StartJoin(int, int, uint32) {}

// The worker's side of the protocol against the service core, with no
// transport: the channel loses one ready frame, then one reply, then delivers
// one ready frame twice. Worker 1 has finished, so the core releases each
// signal of worker 0 it accepts at once, and the test sees only the
// numbering. Every (worker, seq) is answered at most once (the harness
// checks), and worker 0 proceeds every round: after a lost ready frame or a
// lost reply its re-send is a fresh seq the core answers, and the duplicate
// is below the core's cursor.
func TestSignalerAgainstCoreThroughLoss(t *testing.T) {
	h := newCoreHarness(t, coreConfig(2, 2))
	wire := &lossyWire{}
	h.next = wire
	h.finished(1)
	sig := Signaler{Timeout: 0.04}
	now := 0.0
	rounds := []struct {
		fault string
		sends int // transmissions until the answer
	}{{"ready-loss", 2}, {"reply-loss", 2}, {"duplicate-ready", 1}, {"none", 1}}
	for round, r := range rounds {
		fault := r.fault
		f, due := sig.Start(round+1, now)
		for sent := 1; ; sent++ {
			deliver := func() { h.c.Ready(0, f.Iter, f.Seq, f.Epoch, now); h.after() }
			switch {
			case fault == "ready-loss" && sent == 1:
			case fault == "duplicate-ready" && sent == 1:
				deliver()
				deliver()
			default:
				wire.loseReply = fault == "reply-loss" && sent == 1
				deliver()
			}
			answered := false
			for len(wire.replies) > 0 && !answered {
				reply := wire.replies[0]
				wire.replies = wire.replies[1:]
				answered = sig.Answer(reply[0], reply[1])
			}
			if answered {
				if sent != r.sends {
					t.Fatalf("%s: answered after %d transmissions, want %d", fault, sent, r.sends)
				}
				break
			}
			now = due
			var err error
			if f, due, err = sig.Expire(now); err != nil {
				t.Fatalf("%s: worker 0 never proceeded: %v", fault, err)
			}
		}
		if len(wire.replies) != 0 {
			t.Fatalf("%s: %d replies left over", fault, len(wire.replies))
		}
	}
	// Seq 0 was lost on the way; seq 2's answer was lost on the way back.
	for seq := uint64(1); seq <= 5; seq++ {
		if !h.replied[[2]uint64{0, seq}] {
			t.Errorf("seq %d never answered", seq)
		}
	}
	if len(h.replied) != 5 {
		t.Fatalf("answered %v, want seqs 1-5", h.replied)
	}
}

// A stale answer — to an earlier signal, or to a seq never sent — is not the
// current signal's, and only an accepted answer moves the epoch.
func TestSignalerRefusesStaleAnswers(t *testing.T) {
	var sig Signaler
	f, due := sig.Start(1, 0)
	if f.Seq != 0 || due != 0 {
		t.Fatalf("first signal: seq %d due %v, want seq 0 and no due time", f.Seq, due)
	}
	f, _ = sig.Start(2, 0)
	if sig.Answer(0, 9) || sig.Answer(f.Seq+1, 9) {
		t.Fatal("a stale or unsent seq answered the current signal")
	}
	if !sig.Answer(f.Seq, 3) {
		t.Fatal("the current signal's answer refused")
	}
	if f, _ = sig.Start(3, 0); f.Epoch != 3 {
		t.Fatalf("next signal under epoch %d, want the adopted 3", f.Epoch)
	}
}
