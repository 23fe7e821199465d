package live

import (
	"errors"
	"fmt"
	"time"

	"partialreduce/internal/collective"
	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
	"partialreduce/internal/model"
	"partialreduce/internal/tensor"
	"partialreduce/internal/transport"
)

// Multi-process deployment: each rank runs RunWorker in its own process;
// rank 0 additionally hosts the controller. Control-plane messages travel
// over the same transport as the collectives (wire.go has the format), in
// the prototype's spirit: a ready signal is two float64s, a group reply a
// couple dozen — a few bytes against megabytes of model traffic.
//
// Fault tolerance works as in the in-process runtime, but over the wire:
// the host's per-worker receive loops double as failure detectors (a broken
// connection fails the pending receive with a peer-down error), survivors
// report peer deaths through their ready stream, and the host pushes abort
// notifications so group members blocked behind a corpse wake up. The final
// model average runs over a host-broadcast roster of survivors instead of
// the full world. Checkpoint rejoin is an in-process-runtime feature only: a
// real rejoining process needs a fresh transport mesh, which the prototype's
// fixed mesh cannot provide.

// ctrlResendLimit bounds how many times a worker re-sends a ready signal whose
// reply timed out (CtrlTimeout) before concluding the controller is
// unreachable and withdrawing from the cluster.
const ctrlResendLimit = 8

// RunWorker runs this process's share of a live P-Reduce world: the worker
// loop for rank tr.Rank(), plus the controller service when host is true
// (exactly one rank — conventionally 0 — must host). It returns the final
// report; non-host ranks get a report without the averaged-model accuracy
// and the controller's counters. A rank configured to crash returns a
// nil-error report marked Completed[0] == false once it has "died".
func RunWorker(cfg Config, tr transport.Transport, host bool) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr.Size() != cfg.N {
		return nil, fmt.Errorf("live: transport world %d != N %d", tr.Size(), cfg.N)
	}
	ctrlRank := 0
	if _, ok := cfg.Crash[ctrlRank]; ok {
		return nil, fmt.Errorf("live: rank %d hosts the controller and cannot crash (run the controller on a reliable node, or replicate it)", ctrlRank)
	}
	if len(cfg.Rejoin) > 0 {
		return nil, fmt.Errorf("live: checkpoint rejoin requires the in-process runtime (a rejoining process needs a fresh mesh)")
	}

	var svc *svcCore
	ctrlErr := make(chan error, 1)
	gathered := make(chan struct{}) // closed when the root's final gather is over
	if host {
		if tr.Rank() != ctrlRank {
			return nil, fmt.Errorf("live: controller must run on rank %d", ctrlRank)
		}
		go func() {
			var err error
			svc, err = runControllerService(cfg, tr, gathered)
			ctrlErr <- err
		}()
	}

	rep, err := runWorkerLoop(cfg, tr, ctrlRank, host)
	close(gathered)
	if err != nil {
		return nil, err
	}
	if host {
		if cerr := <-ctrlErr; cerr != nil {
			return nil, cerr
		}
		rep.fillController(svc)
	}
	return rep, nil
}

// wireSink delivers the core's effects as control frames from the host's
// endpoint. A frame that cannot be delivered because the peer is gone puts
// the rank on lost, which the service feeds back to the core as Lost events;
// any other send error is fatal to the service.
type wireSink struct {
	tr       transport.Transport
	abortSeq []int // next abort-stream sequence number per worker
	joinSeq  []int // next join-stream sequence number per rank
	buf      []float64
	lost     []int
	err      error
}

// fail records the first error that ends the service.
func (s *wireSink) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *wireSink) send(w int, tag uint64, payload []float64) bool {
	err := s.tr.Send(w, tag, payload)
	switch {
	case err == nil:
		return true
	case transport.IsFailure(err):
		s.lost = append(s.lost, w)
	default:
		s.fail(err)
	}
	return false
}

func (s *wireSink) reply(w int, seq uint64, d engine.Directive) {
	var err error
	if s.buf, err = appendDirective(s.buf[:0], d); err != nil {
		s.fail(err)
		return
	}
	s.send(w, replyTag(int(seq)), s.buf)
}

func (s *wireSink) abort(w int, op uint32, dead int) {
	if s.send(w, abortTag(s.abortSeq[w]), encodeOpRank(op, dead)) {
		s.abortSeq[w]++
	}
}

// startJoin doubles as the dismissal of a parked rank (donor -1, op 0).
func (s *wireSink) startJoin(j, donor int, op uint32) {
	s.send(j, joinTag(s.joinSeq[j]), encodeOpRank(op, donor))
	s.joinSeq[j]++
}

// runControllerService is the wire adapter of the controller service core:
// one receive loop per worker decodes its ready stream into a serializing
// channel, the service loop turns those messages into core events, and
// wireSink sends the core's effects back as control frames. The receive
// loops double as this deployment's failure detector: a worker whose
// connection breaks fails its pending receive with a peer-down error, which
// the loop reports as Lost.
func runControllerService(cfg Config, tr transport.Transport, gathered <-chan struct{}) (*svcCore, error) {
	ctrl, err := newController(cfg)
	if err != nil {
		return nil, err
	}

	type event struct {
		readyMsg
		worker int
		seq    int
		lost   bool  // the receive loop saw the worker go down
		err    error // the worker sent a frame that does not decode
	}
	events := make(chan event, 2*cfg.N) // a ready signal plus a report per worker
	for w := 0; w < cfg.N; w++ {
		w := w
		go func() {
			var buf [3]float64
			for seq := 0; ; seq++ {
				n, err := tr.RecvInto(w, readyTag(seq), buf[:])
				switch {
				case err == nil:
				case transport.IsFailure(err):
					events <- event{worker: w, lost: true}
					return
				case errors.Is(err, transport.ErrShortBuffer):
					events <- event{worker: w, err: err}
					return
				default:
					return // transport closed, service shutting down
				}
				m, err := decodeReady(buf[:n], cfg.N)
				events <- event{readyMsg: m, worker: w, seq: seq, err: err}
				if err != nil || m.kind == evFinished {
					return
				}
			}
		}()
	}

	out := &wireSink{tr: tr, abortSeq: make([]int, cfg.N), joinSeq: make([]int, cfg.N)}
	c := newSvcCore(cfg, ctrl, out)
	wdTick, healthNow, wdStop := healthClock(cfg)
	defer wdStop()

	for c.active > 0 {
		select {
		case <-wdTick:
			c.Tick(healthNow())
		case ev := <-events:
			switch {
			case ev.err != nil:
				return nil, fmt.Errorf("live: worker %d ready stream: %w", ev.worker, ev.err)
			case ev.lost:
				c.Lost(ev.worker)
			case ev.kind == evReady:
				c.Ready(ev.worker, ev.iter, uint64(ev.seq), ev.epoch, unixSeconds(time.Now()))
			case ev.kind == evFinished:
				c.Finished(ev.worker)
			case ev.kind == evDeath:
				c.Death(ev.dead, ev.op)
			case ev.kind == evStuck:
				c.Stuck(ev.op)
			case ev.kind == evJoinAbort:
				c.JoinAbort(ev.worker)
			}
		}
		// Undeliverable effects expose further deaths; handling one can
		// expose more, so drain until quiet.
		for len(out.lost) > 0 {
			w := out.lost[0]
			out.lost = out.lost[1:]
			c.Lost(w)
		}
		if out.err != nil {
			return nil, out.err
		}
		if c.err != nil {
			return nil, c.err
		}
	}
	c.Exit(healthNow())

	// Shutdown: dismiss parked ranks first (never admitted, or drained back
	// out — they are waiting on the join stream and exit without training),
	// broadcast the roster of completed workers for the final gather, and
	// once the root has gathered release each member with the abort stream's
	// op-0 sentinel. Until then a member must stay up: a transport drops the
	// frames still queued from a peer that closed, gather frame included.
	var roster []int
	for w := 0; w < cfg.N; w++ {
		switch {
		case c.completed[w]:
			roster = append(roster, w)
		case c.parked(w):
			out.startJoin(w, -1, 0)
		}
	}
	out.lost = nil // a parked rank that is already gone needs no dismissal
	for _, w := range roster {
		out.send(w, ctrlRosterTag, encodeRoster(roster))
	}
	<-gathered
	for _, w := range roster {
		out.abort(w, 0, -1)
	}
	if out.err != nil {
		return nil, out.err
	}
	if len(out.lost) > 0 {
		return nil, fmt.Errorf("live: workers %v lost at shutdown", out.lost)
	}
	return c, nil
}

// wireControl implements engine.Control over the transport's control-tag
// message space: ready signals and failure reports ride readyTag(seq)
// messages to the controller rank, group replies come back on replyTag(seq).
// The host's per-worker receive loop matches consecutive sequence numbers,
// so every send below advances seq exactly as the host expects.
type wireControl struct {
	cfg      Config
	tr       transport.Transport
	ctrlRank int
	id       int
	seq      int
	// epoch is the last world-view version the controller answered with,
	// stamped into every outgoing signal (0 until the first answer:
	// unversioned signals are always accepted).
	epoch    uint64
	sendBuf  []float64
	replyBuf []float64
}

// send puts m on the ready stream under the current sequence number.
func (c *wireControl) send(m readyMsg) error {
	var err error
	if c.sendBuf, err = appendReady(c.sendBuf[:0], m); err != nil {
		return err
	}
	return c.tr.Send(c.ctrlRank, readyTag(c.seq), c.sendBuf)
}

// report sends m and advances the stream.
func (c *wireControl) report(m readyMsg) error {
	if err := c.send(m); err != nil {
		return err
	}
	c.seq++
	return nil
}

func (c *wireControl) Signal(iter int) (engine.Directive, error) {
	sig := readyMsg{kind: evReady, iter: iter, epoch: c.epoch}
	if err := c.send(sig); err != nil {
		return engine.Directive{}, err
	}
	var reply []float64
	for resends := 0; ; {
		n, err := c.tr.RecvIntoTimeout(c.ctrlRank, replyTag(c.seq), c.replyBuf, c.cfg.CtrlTimeout)
		if err == nil {
			reply = c.replyBuf[:n]
			break
		}
		if !transport.IsTimeout(err) {
			return engine.Directive{}, err
		}
		// The reply was lost with a crashed controller incarnation (or
		// is merely late): re-send the signal on the next sequence
		// number — the host recognizes retransmissions — and wait
		// there. After ctrlResendLimit misses the controller is
		// unreachable (severed link, dead host): withdraw from the
		// cluster so peers and the host detect the departure through
		// the transport instead of everyone hanging.
		resends++
		if resends > ctrlResendLimit {
			c.tr.FailSelf()
			return engine.Directive{}, fmt.Errorf("live: worker %d: controller unreachable after %d signals: %w", c.id, resends, err)
		}
		c.seq++
		if err := c.send(sig); err != nil {
			return engine.Directive{}, err
		}
	}
	c.seq++
	d, err := decodeDirective(reply, c.cfg.N)
	if err != nil {
		return engine.Directive{}, err
	}
	if d.Epoch != 0 {
		// Adopt the controller's world view from every answer (refresh
		// replies exist precisely to deliver this).
		c.epoch = d.Epoch
	}
	return d, nil
}

func (c *wireControl) SignalNoWait(iter int) {
	// Crash injection: the signal goes out and the sender dies without
	// reading the reply, so the send error (if any) is irrelevant.
	_ = c.send(readyMsg{kind: evReady, iter: iter, epoch: c.epoch})
}

func (c *wireControl) ReportDeath(dead int, _ controller.Group, opID uint32) error {
	return c.report(readyMsg{kind: evDeath, dead: dead, op: opID})
}

func (c *wireControl) ReportStuck(_ controller.Group, opID uint32) error {
	return c.report(readyMsg{kind: evStuck, op: opID})
}

func (c *wireControl) Finished() error { return c.send(readyMsg{kind: evFinished}) }

// runWorkerLoop is the per-process worker: it assembles the engine
// LiveWorker and wire-backed Control, hands the training loop to
// engine.RunPReduceWorker (the same step machine the in-process runtime and
// the simulator drive), then runs the roster-wide gather that lets the host
// evaluate the averaged model. An abort-listener goroutine applies the
// host's abort notifications to the local transport, waking this worker if
// it is blocked in a collective behind a dead peer; its exit is also what
// releases a non-host rank at the end of the run.
func runWorkerLoop(cfg Config, tr transport.Transport, ctrlRank int, host bool) (*Report, error) {
	id := tr.Rank()
	base := cfg.Spec.Build(cfg.Seed)
	init := base.Params().Clone()

	// Abort listener: the host numbers abort notifications per worker; op 0
	// is the shutdown sentinel. Errors end the listener (the host is gone,
	// the transport is closing, or we have been declared dead — either way
	// no more aborts).
	released := make(chan struct{})
	go func() {
		defer close(released)
		var buf [2]float64
		for seq := 0; ; seq++ {
			n, err := tr.RecvInto(ctrlRank, abortTag(seq), buf[:])
			if err != nil {
				return
			}
			op, _, err := decodeOpRank(buf[:n], cfg.N)
			if err != nil || op == 0 {
				return
			}
			tr.AbortOp(op)
		}
	}()

	start := time.Now()
	w := newLiveWorker(cfg, id, tr, base, cfg.Train.Shard(cfg.N)[id], init)
	ctl := &wireControl{cfg: cfg, tr: tr, ctrlRank: ctrlRank, id: id, replyBuf: make([]float64, directiveLen(cfg.N))}

	// Elastic lifecycle: ranks beyond the founding set park on the join
	// stream until the host assigns them a donor (bootstrap, then train from
	// the donor's iteration) or dismisses them at shutdown. A drained rank
	// parks again — eligible for re-admission, dismissed when the run ends.
	parked := id >= cfg.initialOr()
	joinSeq := 0
	groups := 0
	report := func(iter int, completed bool) *Report {
		return &Report{
			Groups:      groups,
			WallTime:    time.Since(start),
			WorkerIters: []int{iter},
			Completed:   []bool{completed},
			Comms:       *w.Env.Copts.Stats,
		}
	}
	var out engine.Outcome
	for {
		if parked {
			var buf [2]float64
			n, err := tr.RecvInto(ctrlRank, joinTag(joinSeq), buf[:])
			if err != nil {
				return nil, err
			}
			joinSeq++
			op, donor, err := decodeOpRank(buf[:n], cfg.N)
			if err != nil {
				return nil, err
			}
			if donor < 0 {
				return report(w.StartIter, false), nil
			}
			if err := bootstrapJoiner(cfg, w, donor, op); err != nil {
				if !transport.IsFailure(err) {
					return nil, err
				}
				// Donor died mid-transfer: hand the join back to the host
				// and wait parked for a new assignment (or dismissal).
				if rerr := ctl.report(readyMsg{kind: evJoinAbort}); rerr != nil {
					return nil, rerr
				}
				continue
			}
			parked = false
		}

		var err error
		out, err = engine.RunPReduceWorker(w, ctl)
		switch {
		case err != nil:
			return nil, err
		case out.DeadErr != nil:
			return nil, fmt.Errorf("live: worker %d declared dead: %w", id, out.DeadErr)
		case out.Crashed:
			// The engine already sent the in-flight ready signal; complete the
			// fail-stop so peers and the host observe the death.
			tr.FailSelf()
			return report(out.Iter, false), nil
		}
		groups += out.Groups
		if !out.Drained {
			break
		}
		w.StartIter, parked = out.Iter, true
	}

	// The host broadcasts the survivor roster; the final average runs over
	// it (a full-world gather would block on the dead ranks forever).
	rosterBuf := make([]float64, cfg.N)
	n, err := tr.RecvInto(ctrlRank, ctrlRosterTag, rosterBuf)
	if err != nil {
		return nil, err
	}
	roster, err := decodeRoster(rosterBuf[:n], cfg.N)
	if err != nil {
		return nil, err
	}

	// The tail gather reuses the worker's collective options: TraceIter
	// still carries the last group op's iteration tag, the behavior the
	// trace goldens pin.
	all, err := collective.GatherOpts(tr, roster, gatherOpID, ctrlRank, w.Model.Params(), w.Env.Copts)
	if err != nil {
		return nil, err
	}
	if !host {
		// Stay up until the root is done with this rank's gather frame: the
		// listener ends on the host's sentinel, or when the host is gone.
		<-released
	}
	rep := report(out.Iter, true)
	if host {
		avg := tensor.NewVector(len(init))
		for _, p := range all {
			avg.Add(p)
		}
		avg.Scale(1 / float64(len(all)))
		base.SetParams(avg)
		rep.FinalAccuracy = model.Accuracy(base, cfg.Test)
	}
	return rep, nil
}
