package live

import (
	"errors"
	"fmt"
	"time"

	"partialreduce/internal/collective"
	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/engine"
	"partialreduce/internal/model"
	"partialreduce/internal/tensor"
	"partialreduce/internal/transport"
)

// The control plane, for every deployment: a rank reaches the controller
// service through control frames (wire.go has the format) in the prototype's
// spirit — a ready signal is two float64s, a group reply a couple dozen, a
// few bytes against megabytes of model traffic. In a multi-process world each
// rank runs RunWorker in its own process, rank 0 additionally hosts the
// service, and the frames share the transport with the collectives; Run gives
// them a control world of their own.
//
// Fault tolerance is the wire's: the host's per-worker receive loops double
// as failure detectors (a broken connection, or a rank failing its endpoint
// on the way out, fails the pending receive with a peer-down error),
// survivors report peer deaths through their ready stream, and the host
// pushes abort notifications so group members blocked behind a corpse wake
// up. A dead rank stays dead: re-admitting one needs a fresh transport mesh,
// which the prototype's fixed mesh cannot provide.

// ctrlResendLimit bounds how many times a worker re-sends a ready signal whose
// reply timed out (CtrlTimeout) before concluding the controller is
// unreachable and withdrawing from the cluster.
const ctrlResendLimit = 8

// RunWorker runs this process's share of a live P-Reduce world: the worker
// loop for rank tr.Rank(), plus the controller service when host is true
// (exactly one rank — conventionally 0 — must host). It returns the final
// report; non-host ranks get a report without the averaged-model accuracy
// and the controller's counters.
func RunWorker(cfg Config, tr transport.Transport, host bool) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr.Size() != cfg.N {
		return nil, fmt.Errorf("live: transport world %d != N %d", tr.Size(), cfg.N)
	}
	ctrlRank := 0
	var ctrl *controller.Controller
	ctrlErr := make(chan error, 1)
	gathered := make(chan struct{}) // closed when the root's final gather is over
	if host {
		if tr.Rank() != ctrlRank {
			return nil, fmt.Errorf("live: controller must run on rank %d", ctrlRank)
		}
		var err error
		if ctrl, err = newController(cfg); err != nil {
			return nil, err
		}
		out := newWireSink(tr, cfg.N)
		go func() {
			svc, err := runControllerService(cfg, ctrl, out)
			if err == nil {
				err = out.releaseRoster(svc.Completed(), gathered)
			}
			ctrlErr <- err
		}()
	}

	rep, err := runWorkerRank(cfg, tr, ctrlRank, host)
	close(gathered)
	if err != nil {
		return nil, err
	}
	if host {
		if cerr := <-ctrlErr; cerr != nil {
			return nil, cerr
		}
		rep.fillController(ctrl)
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

// newWireSink sends from the host's endpoint tr to ranks [0, n).
func newWireSink(tr transport.Transport, n int) *wireSink {
	return &wireSink{tr: tr, abortSeq: make([]int, n), joinSeq: make([]int, n)}
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

func (s *wireSink) Reply(w int, seq uint64, d engine.Directive) {
	var err error
	if s.buf, err = appendDirective(s.buf[:0], d); err != nil {
		s.fail(err)
		return
	}
	s.send(w, replyTag(int(seq)), s.buf)
}

func (s *wireSink) Abort(w int, op uint32, dead int) {
	if s.send(w, abortTag(s.abortSeq[w]), encodeOpRank(op, dead)) {
		s.abortSeq[w]++
	}
}

// StartJoin doubles as the dismissal of a parked rank (donor -1, op 0).
func (s *wireSink) StartJoin(j, donor int, op uint32) {
	s.send(j, joinTag(s.joinSeq[j]), encodeOpRank(op, donor))
	s.joinSeq[j]++
}

// runControllerService is the adapter of the controller service core: one
// receive loop per worker decodes its ready stream (from out's endpoint)
// into a serializing channel, the service loop turns those messages into core
// events, and out sends the core's effects back as control frames. The
// receive loops double as the failure detector: a worker whose connection
// breaks, or that failed its endpoint on the way out, fails its pending
// receive with a peer-down error, which the loop reports as Lost. It serves
// until no worker is active, dismisses the parked ranks and returns the core.
func runControllerService(cfg Config, ctrl *controller.Controller, out *wireSink) (*engine.ServiceCore, error) {
	tr := out.tr
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

	c := engine.NewServiceCore(engine.ServiceConfig{
		N: cfg.N, Elastic: cfg.Elastic,
		Watchdog: cfg.Watchdog, Recorder: cfg.Recorder, Instruments: cfg.Instruments,
	}, ctrl, out)
	wdTick, healthNow, wdStop := healthClock(cfg)
	defer wdStop()

	for c.Active() > 0 {
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
		if err := c.Err(); err != nil {
			return nil, err
		}
	}
	c.Exit(healthNow())

	// Dismiss the parked ranks (never admitted, or drained back out): they
	// are waiting on the join stream and exit without training.
	for w := 0; w < cfg.N; w++ {
		if c.Parked(w) {
			out.StartJoin(w, -1, 0)
		}
	}
	out.lost = nil // a parked rank that is already gone needs no dismissal
	return c, out.err
}

// releaseRoster is the host's half of RunWorker's end-of-run exchange:
// broadcast the roster of completed workers for the final gather and, once
// the root has gathered, release each member with the abort stream's op-0
// sentinel. Until then a member must stay up: a transport drops the frames
// still queued from a peer that closed, gather frame included.
func (s *wireSink) releaseRoster(completed []bool, gathered <-chan struct{}) error {
	var roster []int
	for w, done := range completed {
		if done {
			roster = append(roster, w)
		}
	}
	frame := encodeRoster(roster)
	for _, w := range roster {
		s.send(w, ctrlRosterTag, frame)
	}
	<-gathered
	for _, w := range roster {
		s.Abort(w, 0, -1)
	}
	if s.err != nil {
		return s.err
	}
	if len(s.lost) > 0 {
		return fmt.Errorf("live: workers %v lost at shutdown", s.lost)
	}
	return nil
}

// wireControl implements engine.Control over the control-tag message space
// of the rank's control endpoint tr: ready signals and failure reports ride
// readyTag(seq) messages to the controller rank, group replies come back on
// replyTag(seq). The host's per-worker receive loop matches consecutive
// sequence numbers, so every send below advances seq exactly as the host
// expects.
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
		// The reply is late (a partition, a congested host) or was
		// lost: re-send the signal on the next sequence number — the host recognizes retransmissions — and wait
		// there. After ctrlResendLimit misses the controller is
		// unreachable (severed link, dead host): withdraw with an error —
		// the rank loop fails its endpoint on the way out, so peers and
		// the host detect the departure instead of everyone hanging.
		resends++
		if resends > ctrlResendLimit {
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

func (c *wireControl) ReportDeath(dead int, _ controller.Group, opID uint32) error {
	return c.report(readyMsg{kind: evDeath, dead: dead, op: opID})
}

func (c *wireControl) ReportStuck(_ controller.Group, opID uint32) error {
	return c.report(readyMsg{kind: evStuck, op: opID})
}

func (c *wireControl) Finished() error { return c.send(readyMsg{kind: evFinished}) }

// rankEnd is how one rank's lifecycle ended.
type rankEnd struct {
	w        *engine.LiveWorker // the replica and its data-plane stats
	iter     int                // final loop counter
	groups   int                // group collectives completed
	finished bool               // spent its iteration budget and said so
	deadErr  error              // its own endpoint failed under it: declared dead
	// released closes when the rank's abort listener ends: on the host's
	// shutdown sentinel, or when the host or the endpoint is gone.
	released <-chan struct{}
}

// runRank is one rank's whole lifecycle, the same in every deployment: park
// until admitted (ranks beyond the founding set), bootstrap from the assigned
// donor, hand the training loop to engine.RunPReduceWorker (the step machine
// the simulator drives too) behind a wireControl, park again when drained,
// until the budget is spent, the rank dies, or the host dismisses it. tr
// carries the collectives and ctl the control frames to and from ctrlRank
// (RunWorker passes one endpoint as both). base, init and shard are only
// read. An abort-listener goroutine applies the host's abort notifications to
// tr, waking this rank if it is blocked in a collective behind a dead peer.
//
// A rank that leaves abnormally — declared dead (a crash of its own endpoint
// shows as one), hard error — fails its control endpoint, which is what the
// host's receive loop detects.
func runRank(cfg Config, tr, ctl transport.Transport, ctrlRank int, base model.Model, init tensor.Vector, shard *data.Dataset) (end rankEnd, err error) {
	id := tr.Rank()
	defer func() {
		if err != nil || end.deadErr != nil {
			ctl.FailSelf()
		}
	}()

	// The host numbers abort notifications per worker; op 0 is the shutdown
	// sentinel. Errors end the listener (the host is gone, the endpoint is
	// closing, or we failed it ourselves — either way no more aborts).
	released := make(chan struct{})
	go func() {
		defer close(released)
		var buf [2]float64
		for seq := 0; ; seq++ {
			n, err := ctl.RecvInto(ctrlRank, abortTag(seq), buf[:])
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

	w := newLiveWorker(cfg, id, tr, base, shard, init)
	c := &wireControl{cfg: cfg, tr: ctl, ctrlRank: ctrlRank, id: id, replyBuf: make([]float64, directiveLen(cfg.N))}
	end = rankEnd{w: w, released: released}

	// A drained rank parks again — eligible for re-admission, dismissed when
	// the run ends.
	parked := id >= cfg.initialOr()
	joinSeq := 0
	for {
		if parked {
			var buf [2]float64
			n, err := ctl.RecvInto(ctrlRank, joinTag(joinSeq), buf[:])
			if err != nil {
				return end, err
			}
			joinSeq++
			op, donor, err := decodeOpRank(buf[:n], cfg.N)
			if err != nil {
				return end, err
			}
			if donor < 0 {
				end.iter = w.StartIter
				return end, nil
			}
			if err := bootstrapJoiner(cfg, w, donor, op); err != nil {
				if !transport.IsFailure(err) {
					return end, err
				}
				// Donor died mid-transfer: hand the join back to the host
				// and wait parked for a new assignment (or dismissal).
				if rerr := c.report(readyMsg{kind: evJoinAbort}); rerr != nil {
					return end, rerr
				}
				continue
			}
			parked = false
		}

		out, err := engine.RunPReduceWorker(w, c)
		end.iter, end.deadErr = out.Iter, out.DeadErr
		end.groups += out.Groups
		switch {
		case err != nil || out.DeadErr != nil:
			return end, err
		case !out.Drained:
			end.finished = true
			return end, nil
		}
		w.StartIter, parked = out.Iter, true
	}
}

// runWorkerRank is RunWorker's rank: the shared lifecycle, then the one thing
// a single-rank process needs and a caller that owns every rank does not —
// the roster-wide gather that lets the host evaluate the averaged model.
func runWorkerRank(cfg Config, tr transport.Transport, ctrlRank int, host bool) (*Report, error) {
	start := time.Now()
	base := cfg.Spec.Build(cfg.Seed)
	end, err := runRank(cfg, tr, tr, ctrlRank, base, base.Params().Clone(), cfg.Train.Shard(cfg.N)[tr.Rank()])
	switch {
	case err != nil:
		return nil, err
	case end.deadErr != nil:
		return nil, fmt.Errorf("live: worker %d declared dead: %w", tr.Rank(), end.deadErr)
	}
	w := end.w
	report := func() *Report {
		return &Report{
			Groups:      end.groups,
			WallTime:    time.Since(start),
			WorkerIters: []int{end.iter},
			Completed:   []bool{end.finished},
			Comms:       *w.Env.Copts.Stats,
		}
	}
	if !end.finished {
		return report(), nil // dismissed while parked
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
		<-end.released
	}
	rep := report()
	if host {
		avg := tensor.NewVector(base.NumParams())
		for _, p := range all {
			avg.Add(p)
		}
		avg.Scale(1 / float64(len(all)))
		base.SetParams(avg)
		rep.FinalAccuracy = model.Accuracy(base, cfg.Test)
	}
	return rep, nil
}
