package engine

import (
	"errors"
	"fmt"
	"time"

	"partialreduce/internal/collective"
	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
	"partialreduce/internal/tensor"
	"partialreduce/internal/trace"
	"partialreduce/internal/transport"
)

// Directive is the controller's answer to a ready signal: a formed group to
// reduce with, or one of the control outcomes — Skip (proceed solo this
// iteration: tail release, or a signal the controller rejected), Drain (the
// worker's graceful hand-off is complete; leave the loop cleanly), Refresh
// (the signal carried a stale world-view epoch; adopt Epoch and re-signal),
// or a bootstrap assignment (serve your model state to a joining rank, then
// re-signal).
type Directive struct {
	Group controller.Group
	OpID  uint32
	Skip  bool
	// Drain tells the worker its Drain → Decommission hand-off is complete:
	// stop training without an error and without counting as a failure.
	Drain bool
	// Refresh tells the worker its signal was rejected for a stale epoch:
	// adopt Epoch as the current world view and re-signal the same iteration.
	Refresh bool
	// Epoch is the controller's world-view version at answer time; the
	// worker stamps it into its next ready signal.
	Epoch uint64
	// Bootstrap assigns the worker as the join donor for rank BootstrapFor:
	// it sends its model state with the Bootstrap collective under
	// BootstrapOp, then re-signals the same iteration.
	Bootstrap    bool
	BootstrapFor int
	BootstrapOp  uint32
}

// Control is the worker's view of the control plane. The live runtime
// implements it over a transport's control streams, numbering its signals
// with a Signaler; tests script it. Model data never moves through a
// Control — it carries only ids, iteration numbers, and op tags (§4).
type Control interface {
	// Signal sends the worker's ready signal for iter and blocks until the
	// controller answers it. Re-sends after an overdue reply and the
	// withdrawal after ctrlResendLimit of them are the Signaler's; an error
	// means the control plane is unusable and the run is over for this
	// worker.
	Signal(iter int) (Directive, error)
	// ReportDeath reports a peer observed dead inside collective op opID of
	// group g.
	ReportDeath(dead int, g controller.Group, opID uint32) error
	// ReportStuck reports a collective that timed out with no peer known
	// dead (severed link, partition): the controller aborts the op for the
	// whole group and nobody is condemned.
	ReportStuck(g controller.Group, opID uint32) error
	// Finished announces that the worker completed all its iterations.
	Finished() error
}

// ctrlResendLimit bounds how many times a worker re-sends a ready signal
// whose reply is overdue before it takes the controller for unreachable.
const ctrlResendLimit = 8

// Signaler is the worker's side of the control protocol, with no transport
// and no clock (times are arguments, in seconds). Every transmission of a
// ready signal, the first and each re-send, gets the next seq; ServiceCore
// answers an accepted (worker, seq) once and drops a seq below its cursor,
// so a re-send after a lost reply is a fresh signal and a duplicate frame
// costs nothing. A reply to any of the current signal's transmissions
// answers it; any other is stale.
type Signaler struct {
	Timeout float64 // reply wait per transmission (0: forever)
	seq     uint64  // the next transmission's number
	first   uint64  // the current signal's first transmission
	epoch   uint64  // the world view adopted from the last answer (0: none)
	resends int
	frame   ReadyFrame
}

// ReadyFrame is one transmission of a ready signal.
type ReadyFrame struct {
	Iter       int
	Seq, Epoch uint64
}

// Start begins the ready signal for iter at time now >= 0: its first
// transmission and the time its reply is due (0: never).
func (s *Signaler) Start(iter int, now float64) (ReadyFrame, float64) {
	s.first, s.resends, s.frame = s.seq, 0, ReadyFrame{Iter: iter, Epoch: s.epoch}
	return s.send(now)
}

// Expire is the due time passing at now: the re-send and its due time, or
// an error once ctrlResendLimit re-sends went unanswered.
func (s *Signaler) Expire(now float64) (ReadyFrame, float64, error) {
	if s.resends++; s.resends > ctrlResendLimit {
		return ReadyFrame{}, 0, fmt.Errorf("controller unreachable after %d signals", s.resends)
	}
	f, due := s.send(now)
	return f, due, nil
}

func (s *Signaler) send(now float64) (ReadyFrame, float64) {
	s.frame.Seq, s.seq = s.seq, s.seq+1
	if s.Timeout <= 0 {
		return s.frame, 0
	}
	return s.frame, now + s.Timeout
}

// Answer reports whether the reply numbered seq answers the current signal;
// the caller discards any other. An accepted reply's non-zero epoch is the
// world view later signals are sent under.
func (s *Signaler) Answer(seq, epoch uint64) bool {
	ok := seq >= s.first && seq < s.seq
	if ok && epoch != 0 {
		s.epoch = epoch
	}
	return ok
}

// LiveWorker is one worker's training state, assembled by a live runtime and
// driven by RunPReduceWorker / RunAllReduceWorker: a real transport
// endpoint, real collectives, wall-clock time, and the bytes the collective
// layer counts as they move (into Copts.Stats).
type LiveWorker struct {
	// Rank is this worker's id in the transport world.
	Rank int
	// Trans is the worker's transport endpoint.
	Trans transport.Transport
	// Copts configures every collective this worker runs. Its TraceIter
	// field is updated in place per group op; Stats, when set, accumulates
	// the worker's data-plane traffic.
	Copts collective.Options
	// Tracer records the worker's spans (its barrier wait reaches the
	// instruments through the tracer's sink); Instruments takes the
	// collectives' byte counts. Both nil-safe / optional.
	Tracer      *trace.Tracer
	Instruments *metrics.Instruments
	Model       model.Model
	Opt         *optim.SGD
	Sampler     *data.Sampler
	// Init is the shared initial model x₁ (dynamic weighting folds it in
	// with the leftover EMA mass).
	Init tensor.Vector
	// Iters is the local-iteration budget; StartIter is where the loop
	// counter begins (non-zero after an elastic join: the donor's iteration).
	Iters     int
	StartIter int
	BatchSize int
	// ComputeDelay optionally injects artificial per-batch latency to
	// emulate heterogeneity on real hardware (nil for full speed).
	ComputeDelay func(worker, iter int) time.Duration
}

// Outcome reports how a live worker loop ended.
type Outcome struct {
	// Iter is the final loop-counter value.
	Iter int
	// Groups counts group collectives completed (P-Reduce) or all-reduce
	// rounds completed (AR).
	Groups int
	// DeadErr is the collective error that declared this worker dead
	// (somebody else reported us and our own op was aborted against us);
	// the worker must fall silent. Nil otherwise.
	DeadErr error
	// Drained reports a graceful elastic hand-off: the worker drained and
	// decommissioned cleanly before spending its iteration budget. Not a
	// failure, not a crash.
	Drained bool
}

// RunPReduceWorker is the live training-step loop (Algorithm 2), the same
// for every rank of every deployment: compute a batch, update
// locally, signal ready, and either proceed solo or reduce with the
// dispatched group — re-signaling when the collective is aborted under it
// (§4). The group average lands in a spare buffer that trades places with
// the model's parameters on success, so §4's rollback is free: an aborted or
// timed-out group never wrote the model. A non-nil error is fatal and raw:
// the calling runtime owns wrapping and cleanup.
func RunPReduceWorker(w *LiveWorker, ctl Control) (Outcome, error) {
	id := w.Rank
	m := w.Model
	var grad tensor.Vector                   // allocated by the first step that materializes a gradient, if any
	spare := tensor.NewVector(m.NumParams()) // the next group average lands here
	var batch *data.Batch
	tracer := w.Tracer
	ins := w.Instruments
	var prevComms collective.OpStats // last OpStats folded into instruments
	machine := NewMachine(1)
	groups := 0
	// The paper's loop counter: fast-forwarded to the group max after every
	// partial reduce (§3.3.3), so stragglers skip caught-up work.
	iter := w.StartIter

	for iter < w.Iters {
		machine.To(0, StateCompute)
		computeStart := tracer.Now()
		if w.ComputeDelay != nil {
			if d := w.ComputeDelay(id, iter); d > 0 {
				time.Sleep(d)
			}
		}
		batch = w.Sampler.Sample(batch, w.BatchSize)
		localStep(m, w.Opt, &grad, batch)
		iter++
		tracer.Span(trace.KCompute, int32(id), int32(iter), computeStart, 0, 0)

		for { // signal ready; on a group abort, re-signal
			if machine.State(0) != StateReady {
				// Refresh and bootstrap directives loop back here with the
				// worker already in StateReady (the re-signal is the same
				// step-machine phase, not a new transition).
				machine.To(0, StateReady)
			}
			waitStart := tracer.Now()
			d, err := ctl.Signal(iter)
			if err != nil {
				return Outcome{Iter: iter, Groups: groups}, err
			}
			solo := int64(0)
			if d.Skip {
				solo = 1
			}
			tracer.Span(trace.KSignalWait, int32(id), int32(iter), waitStart, solo, 0)
			if d.Drain {
				// Graceful hand-off complete: the controller answered the
				// signal with a drain acknowledgment instead of a group. Exit
				// without Finished() — a drained rank is not a completed one.
				machine.To(0, StateDraining)
				machine.To(0, StateDone)
				return Outcome{Iter: iter, Groups: groups, Drained: true}, nil
			}
			if d.Bootstrap {
				// This worker is the join donor: serve its model state to the
				// joining rank, then re-signal the same iteration. A transport
				// failure here means the joiner died mid-bootstrap; the donor
				// is unaffected and simply re-signals.
				vel, step := w.Opt.State()
				st := collective.BootstrapState{
					Params:   m.Params(),
					Velocity: vel,
					Iter:     iter,
					Step:     step,
				}
				tracer.Instant(trace.KBootstrap, int32(id), int32(iter),
					int64(d.BootstrapFor), int64(len(st.Params)))
				if err := collective.BootstrapSend(w.Trans, d.BootstrapFor, d.BootstrapOp, st, w.Copts); err != nil {
					if !transport.IsFailure(err) {
						return Outcome{Iter: iter, Groups: groups}, err
					}
				}
				continue
			}
			if d.Refresh {
				// Stale world-view epoch: the Control implementation has
				// already adopted d.Epoch for the next signal; re-signal the
				// same iteration against the current membership.
				continue
			}
			if d.Skip {
				break // proceed solo this iteration
			}
			g := d.Group
			var weight float64
			for i, member := range g.Members {
				if member == id {
					weight = g.Weights[i]
					break
				}
			}
			machine.To(0, StateReduce)
			w.Copts.TraceIter = int32(iter)
			err = collective.ReduceInto(w.Trans, g.Members, d.OpID, spare, m.Params(), weight, 1, w.Copts)
			if ins != nil {
				// Fold this collective's data-plane delta into the live
				// instruments so /metrics is fresh mid-run (the run total
				// still merges once at worker exit). A side call, not an
				// event: no event carries the OpStats byte counts.
				cur := *w.Copts.Stats
				ins.AddComms(commsDelta(cur, prevComms))
				prevComms = cur
			}
			if err == nil {
				machine.To(0, StateApply)
				spare = m.SwapParams(spare)
				if g.InitWeight > 0 {
					m.Params().Axpy(g.InitWeight, w.Init)
				}
				if g.Iter > iter {
					iter = g.Iter
				}
				groups++
				break
			}
			if !transport.IsFailure(err) {
				// Hard transport error (e.g. endpoint closed): fatal.
				return Outcome{Iter: iter, Groups: groups}, err
			}
			// A peer died mid-collective (§4): the model still holds its
			// pre-group parameters (only spare was written), so report the
			// death and re-signal ready for this same iteration. The
			// controller will regroup us with survivors.
			dead := deadPeer(err)
			if dead == id {
				machine.Kill(0)
				return Outcome{Iter: iter, Groups: groups, DeadErr: err}, nil
			}
			if dead >= 0 {
				if rerr := ctl.ReportDeath(dead, g, d.OpID); rerr != nil {
					return Outcome{Iter: iter, Groups: groups}, rerr
				}
			} else if transport.IsTimeout(err) {
				// The collective timed out (after exhausting any retry
				// budget) with no peer known dead: a severed link or
				// partition. Ask the controller to abort the op for the
				// whole group so every stuck member abandons it and
				// re-signals; nobody is condemned.
				if rerr := ctl.ReportStuck(g, d.OpID); rerr != nil {
					return Outcome{Iter: iter, Groups: groups}, rerr
				}
			}
		}
	}
	if machine.State(0) != StateIdle {
		// A joiner bootstrapped at its donor's final iteration enters with
		// the budget already spent (still idle); everyone else arrives here
		// from a solo release (ready) or a completed group (apply).
		machine.To(0, StateDone)
	}
	if err := ctl.Finished(); err != nil {
		return Outcome{Iter: iter, Groups: groups}, err
	}
	return Outcome{Iter: iter, Groups: groups}, nil
}

// factoredGradient is the form of Gradient a model may offer when its
// one-example gradient is a few outer products (the MLP).
type factoredGradient interface {
	GradientFactors(b *data.Batch) []tensor.Outer
}

// localStep is Algorithm 2 l.3–4 on the live replica: the gradient of batch
// at the current parameters, then one optimizer update of them. A one-example
// gradient that comes factored is consumed element by element where it is
// produced, nothing D-sized written; anything else is Gradient + Update
// through *grad, allocated on first need. Both leave the same bits.
func localStep(m model.Model, opt *optim.SGD, grad *tensor.Vector, batch *data.Batch) {
	if f, ok := m.(factoredGradient); ok && len(batch.X) == 1 {
		opt.UpdateFactored(m.Params(), f.GradientFactors(batch), 1)
		return
	}
	if *grad == nil {
		*grad = tensor.NewVector(m.NumParams())
	}
	m.Gradient(*grad, batch)
	opt.Update(m.Params(), *grad, 1)
}

// RunAllReduceWorker is the live All-Reduce baseline's per-rank loop: every
// iteration all workers compute a gradient and average it with one
// full-world mean all-reduce — the synchronous barrier P-Reduce removes.
// There is no ready/controller phase, so the step machine moves compute →
// reduce directly. group must list every rank.
//
// The update is sharded (collective.AllReduceApply): a rank steps the
// optimizer on the chunk its ring reduced and the all-gather spreads the
// parameters. Every replica starts from the same model and the momentum
// element update does not depend on its position, so the parameters are the
// bits of SGD.Update over the whole mean, as RunAllReduceSim runs it. A
// rank's velocity is current only on its chunk; nothing exports it.
func RunAllReduceWorker(w *LiveWorker, group []int) (Outcome, error) {
	id := w.Rank
	m := w.Model
	grad := tensor.NewVector(m.NumParams())
	var batch *data.Batch
	machine := NewMachine(1)
	apply := func(lo, hi int) { w.Opt.UpdateRange(m.Params(), grad, lo, hi) }

	for iter := 0; iter < w.Iters; iter++ {
		machine.To(0, StateCompute)
		if w.ComputeDelay != nil {
			if d := w.ComputeDelay(id, iter); d > 0 {
				time.Sleep(d)
			}
		}
		batch = w.Sampler.Sample(batch, w.BatchSize)
		m.Gradient(grad, batch)
		machine.To(0, StateReduce)
		if err := collective.AllReduceApply(w.Trans, group, uint32(iter+1), grad, m.Params(), apply, w.Copts); err != nil {
			return Outcome{Iter: iter}, err
		}
		machine.To(0, StateApply) // the update ran inside the collective
	}
	machine.To(0, StateDone)
	return Outcome{Iter: w.Iters, Groups: w.Iters}, nil
}

// commsDelta converts the difference cur−prev of two cumulative OpStats
// readings into the metrics.CommStats shape the live instruments accumulate.
func commsDelta(cur, prev collective.OpStats) metrics.CommStats {
	return metrics.CommStats{
		Ops:            cur.Ops - prev.Ops,
		BytesSent:      cur.BytesSent - prev.BytesSent,
		BytesRecv:      cur.BytesRecv - prev.BytesRecv,
		Segments:       cur.Segments - prev.Segments,
		Retries:        cur.Retries - prev.Retries,
		Timeouts:       cur.Timeouts - prev.Timeouts,
		Aborts:         cur.Aborts - prev.Aborts,
		ReduceScatterS: (cur.ReduceScatter - prev.ReduceScatter).Seconds(),
		AllGatherS:     (cur.AllGather - prev.AllGather).Seconds(),
	}
}

// deadPeer extracts the rank whose death caused a collective failure, or -1.
func deadPeer(err error) int {
	var pd *transport.PeerDownError
	if errors.As(err, &pd) {
		return pd.Peer
	}
	var oa *transport.OpAbortedError
	if errors.As(err, &oa) {
		return oa.Dead
	}
	return -1
}
