package transport

import (
	"sync/atomic"
	"time"
)

// Loans is one caller's list of payloads out on loan (Lend): slices a
// receiver's mailbox references instead of a pooled copy. The caller owns
// it, lends through it from one goroutine at a time and ends every batch of
// loans with Settle or Recall before writing a lent slice again. The zero
// value is ready; a settled Loans is reusable, and a warm one allocates
// nothing.
type Loans struct {
	out  atomic.Int64  // loans not yet consumed, dropped or copied
	wake chan struct{} // a token when out reaches 0
	list []loan        // every loan since the last settle, for Recall
}

// loan is one lent frame: the mailbox it waits in, under which key.
type loan struct {
	box *mailbox
	k   key
}

// add records a loan parked in box under k. The lender's goroutine calls it,
// under box.mu.
func (l *Loans) add(box *mailbox, k key) {
	if l.wake == nil {
		l.wake = make(chan struct{}, 1)
	}
	l.out.Add(1)
	l.list = append(l.list, loan{box: box, k: k})
}

// release returns one loan: its receiver has copied it out, or a failure
// path dropped it or copied it into the pool. The payload is the lender's
// again once the count it wakes Settle on reaches 0.
func (l *Loans) release() {
	if l.out.Add(-1) == 0 {
		select {
		case l.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
}

// Settle returns once every loan is back: consumed by its receiver, or
// dropped by a failure path there. timeout > 0 bounds the wait: the loans
// still parked when it expires become pooled copies, as Recall makes them,
// so a slow receiver costs its lender no more than the deadline it already
// has. timeout <= 0 waits as long as it takes.
func (l *Loans) Settle(timeout time.Duration) {
	if timeout > 0 && l.out.Load() > 0 {
		t := time.NewTimer(timeout)
		for l.out.Load() > 0 {
			select {
			case <-l.wake:
			case <-t.C:
				l.reclaim()
			}
		}
		t.Stop()
	}
	l.wait()
}

// Recall returns every loan without waiting for a receiver: each one still
// parked becomes a pooled copy in place, under its mailbox's lock, so the
// receiver later finds what Send would have left it. It waits only for the
// receives already copying a loan out. A failed attempt recalls, so a retry
// that rewrites its input never races a reader.
func (l *Loans) Recall() {
	l.reclaim()
	l.wait()
}

// reclaim copies every loan still parked into the pool.
func (l *Loans) reclaim() {
	for _, ln := range l.list {
		ln.box.mu.Lock()
		if p, ok := ln.box.pending[ln.k]; ok && p.loans == l {
			ln.box.unlend(ln.k, p)
		}
		ln.box.mu.Unlock()
	}
}

// wait blocks until no loan is out, then forgets them.
func (l *Loans) wait() {
	for l.out.Load() > 0 {
		<-l.wake
	}
	clear(l.list)
	l.list = l.list[:0]
}
