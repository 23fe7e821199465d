package live

import (
	"errors"
	"fmt"
	"time"

	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/engine"
	"partialreduce/internal/model"
	"partialreduce/internal/tensor"
	"partialreduce/internal/transport"
)

// The control plane, for every deployment: a rank reaches the controller
// service through control frames (wire.go has the format) in the prototype's
// spirit — a ready signal is three float64s, a group reply a couple dozen, a
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

// RunWorker runs this process's share of a live P-Reduce world: the worker
// loop for rank tr.Rank(), plus the controller service when host is true
// (exactly one rank — conventionally 0 — must host). It returns the final
// report; non-host ranks get a report without the averaged-model accuracy
// and the controller's counters.
func RunWorker(cfg Config, tr transport.Transport, host bool) (*Report, error) {
	if err := cfg.start(); err != nil {
		return nil, err
	}
	if tr.Size() != cfg.N {
		return nil, fmt.Errorf("live: transport world %d != N %d", tr.Size(), cfg.N)
	}
	ctrlRank := 0
	var ctrl *controller.Controller
	var completed chan []bool // host only: the core's completed set, nil if the service failed
	ctrlErr := make(chan error, 1)
	averaged := make(chan struct{}) // closed when the host's final average is over
	if host {
		if tr.Rank() != ctrlRank {
			return nil, fmt.Errorf("live: controller must run on rank %d", ctrlRank)
		}
		var err error
		if ctrl, err = newController(cfg); err != nil {
			return nil, err
		}
		completed = make(chan []bool, 1)
		out := &wireSink{tr: tr}
		go func() {
			svc, err := runControllerService(cfg, ctrl, out)
			if err != nil {
				completed <- nil
				ctrlErr <- err
				return
			}
			completed <- svc.Completed()
			ctrlErr <- out.release(svc.Completed(), averaged)
		}()
	}

	rep, err := runWorkerRank(cfg, tr, ctrlRank, completed)
	close(averaged)
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
	tr   transport.Transport
	buf  []float64
	lost []int
	err  error
}

// fail records the first error that ends the service.
func (s *wireSink) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *wireSink) send(w int, tag uint64, payload []float64) {
	err := s.tr.Send(w, tag, payload)
	switch {
	case err == nil:
	case transport.IsFailure(err):
		s.lost = append(s.lost, w)
	default:
		s.fail(err)
	}
}

func (s *wireSink) Reply(w int, seq uint64, d engine.Directive) {
	var err error
	if s.buf, err = appendDirective(s.buf[:0], seq, d); err != nil {
		s.fail(err)
		return
	}
	s.send(w, ctrlReplyTag, s.buf)
}

func (s *wireSink) Abort(w int, op uint32, dead int) { s.send(w, ctrlAbortTag, encodeOpRank(op, dead)) }

// StartJoin doubles as the dismissal of a parked rank (donor -1, op 0).
func (s *wireSink) StartJoin(j, donor int, op uint32) {
	s.send(j, ctrlJoinTag, encodeOpRank(op, donor))
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
		lost   bool  // the receive loop saw the worker go down
		err    error // the worker sent a frame that does not decode
	}
	events := make(chan event, 2*cfg.N) // a ready signal plus a report per worker
	for w := 0; w < cfg.N; w++ {
		go func() {
			var buf [3]float64
			for {
				n, err := tr.RecvInto(w, ctrlReadyTag, buf[:])
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
				events <- event{readyMsg: m, worker: w, err: err}
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
				c.Ready(ev.worker, ev.Iter, ev.Seq, ev.Epoch, unixSeconds(time.Now()))
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

// release is the host's half of RunWorker's end of run: once the host's
// final average is over, release each completed worker with the abort
// stream's op-0 sentinel. Until then a worker must stay up: a transport drops
// the frames still queued from a peer that closed, its final model included.
func (s *wireSink) release(completed []bool, averaged <-chan struct{}) error {
	<-averaged
	for w, done := range completed {
		if done {
			s.Abort(w, 0, -1)
		}
	}
	if s.err != nil {
		return s.err
	}
	if len(s.lost) > 0 {
		return fmt.Errorf("live: workers %v lost at shutdown", s.lost)
	}
	return nil
}

// wireControl implements engine.Control over the rank's control endpoint
// tr: ready signals and reports go out on the ready stream to ctrlRank, and
// answers come back on the reply stream. sig numbers the signals and decides
// which answer is this signal's; the host reads whatever arrives next.
type wireControl struct {
	cfg      Config
	tr       transport.Transport
	ctrlRank int
	id       int
	sig      engine.Signaler // on the unixSeconds clock
	sendBuf  []float64
	replyBuf []float64
	// members and weights hold the group of the last reply, sized for the
	// whole world: a Directive is read only until the next Signal, so every
	// reply decodes into them.
	members []int
	weights []float64
}

// report puts m on the ready stream.
func (c *wireControl) report(m readyMsg) error {
	var err error
	if c.sendBuf, err = appendReady(c.sendBuf[:0], m); err != nil {
		return err
	}
	return c.tr.Send(c.ctrlRank, ctrlReadyTag, c.sendBuf)
}

func (c *wireControl) Signal(iter int) (engine.Directive, error) {
	f, due := c.sig.Start(iter, unixSeconds(time.Now()))
	for {
		if err := c.report(readyMsg{kind: evReady, ReadyFrame: f}); err != nil {
			return engine.Directive{}, err
		}
		// Read replies until this signal's answer (older answers are
		// dropped) or its due time. Past it the reply was lost, or the host
		// is slow or cut off: Expire re-sends, or after ctrlResendLimit
		// misses withdraws — the rank loop then fails its endpoint on the
		// way out, so the host and peers see it leave.
		var err error
		for n := 0; err == nil; {
			wait := time.Duration(0) // no due time: wait forever
			if due > 0 {
				wait = max(time.Duration((due-unixSeconds(time.Now()))*1e9), 1)
			}
			if n, err = c.tr.RecvIntoTimeout(c.ctrlRank, ctrlReplyTag, c.replyBuf, wait); err == nil {
				seq, d, derr := decodeDirective(c.replyBuf[:n], c.cfg.N, c.members, c.weights)
				if derr != nil || c.sig.Answer(seq, d.Epoch) {
					return d, derr
				}
			}
		}
		if !transport.IsTimeout(err) {
			return engine.Directive{}, err
		}
		var xerr error
		if f, due, xerr = c.sig.Expire(unixSeconds(time.Now())); xerr != nil {
			return engine.Directive{}, fmt.Errorf("live: worker %d: %w: %w", c.id, xerr, err)
		}
	}
}

func (c *wireControl) ReportDeath(dead int, _ controller.Group, opID uint32) error {
	return c.report(readyMsg{kind: evDeath, dead: dead, op: opID})
}

func (c *wireControl) ReportStuck(_ controller.Group, opID uint32) error {
	return c.report(readyMsg{kind: evStuck, op: opID})
}

func (c *wireControl) Finished() error { return c.report(readyMsg{kind: evFinished}) }

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

	// The abort stream, in arrival order; op 0 is the shutdown sentinel.
	// Errors end the listener (the host is gone, the endpoint is closing, or
	// we failed it ourselves — either way no more aborts).
	released := make(chan struct{})
	go func() {
		defer close(released)
		var buf [2]float64
		for {
			n, err := ctl.RecvInto(ctrlRank, ctrlAbortTag, buf[:])
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
	c := &wireControl{cfg: cfg, tr: ctl, ctrlRank: ctrlRank, id: id,
		sig: engine.Signaler{Timeout: cfg.CtrlTimeout.Seconds()}, replyBuf: make([]float64, directiveLen(cfg.N)),
		members: make([]int, cfg.N), weights: make([]float64, cfg.N)}
	end = rankEnd{w: w, released: released}

	// A drained rank parks again — eligible for re-admission, dismissed when
	// the run ends.
	parked := id >= cfg.initialOr()
	for {
		if parked {
			var buf [2]float64
			n, err := ctl.RecvInto(ctrlRank, ctrlJoinTag, buf[:])
			if err != nil {
				return end, err
			}
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
// the final average over the completed ranks (Alg. 2 line 8), at the host.
// completed is nil on every rank but the host, where it delivers the service
// core's completed set once the service is over.
func runWorkerRank(cfg Config, tr transport.Transport, ctrlRank int, completed <-chan []bool) (*Report, error) {
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
			Comms:       *w.Copts.Stats,
		}
	}
	if !end.finished {
		return report(), nil // dismissed while parked
	}
	params := w.Model.Params()
	if completed == nil {
		// Hand the final model to the host, then stay up until the host is
		// done with it: the listener ends on the host's sentinel, or when
		// the host is gone.
		if err := tr.Send(ctrlRank, ctrlModelTag, params); err != nil {
			return nil, err
		}
		<-end.released
		return report(), nil
	}

	// The average runs over the ranks that completed, in rank order (a
	// full-world average would block on the dead forever).
	done := <-completed
	if done == nil {
		return report(), nil // the service failed; RunWorker reports why
	}
	avg := tensor.NewVector(base.NumParams())
	in := make([]float64, len(params))
	n := 0
	for r, finished := range done {
		if !finished {
			continue
		}
		p := params
		if r != ctrlRank {
			got, err := tr.RecvIntoTimeout(r, ctrlModelTag, in, w.Copts.Timeout)
			if err != nil {
				return nil, fmt.Errorf("live: final model of rank %d: %w", r, err)
			}
			if got != len(in) {
				return nil, fmt.Errorf("live: final model of rank %d holds %d parameters, want %d", r, got, len(in))
			}
			p = in
		}
		avg.Add(p)
		n++
	}
	rep := report()
	avg.Scale(1 / float64(n))
	base.SetParams(avg)
	rep.FinalAccuracy = model.Accuracy(base, cfg.Test)
	return rep, nil
}
