package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	preduce "partialreduce"
	"partialreduce/internal/bufpool"
	"partialreduce/internal/collective"
	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/live"
	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
	"partialreduce/internal/transport"
)

// traceRing holds one traced rep without wrapping: ctrl_tcp, the busiest
// workload, records about 10 events on each of ~6000 steps.
const traceRing = 1 << 18

// repMode selects what a rep records beyond its step count and wall time.
type repMode int

const (
	// modePlain is the untraced end-to-end rep: the hook only counts.
	modePlain repMode = iota
	// modeObserved is an untraced rep of the traced pass: the hook also
	// stamps every call (iteration gaps) and the heap counters are read
	// before and after.
	modeObserved
	// modeTraced sets Config.Tracer and Config.Instruments.
	modeTraced
)

// repOut is what one rep produced, measured from outside the product.
type repOut struct {
	steps int64         // computed mini-batches, all ranks
	wall  time.Duration // the timed region
	// memberships is the number of (rank, group) participations; steps
	// minus memberships are the iterations that proceeded solo.
	memberships int64
	comms       commCounts
	accuracy    float64
	// digest identifies a deterministic rep's outcome (All-Reduce, sim):
	// every rep of a seed must produce the same one.
	digest string

	gapsUS     []float64     // modeObserved: per-rank gaps between hook calls
	events     []trace.Event // modeTraced
	mallocs    uint64        // modeObserved: heap objects allocated
	allocBytes uint64
	f64Misses  int64

	simUpdates  int     // sim only
	simVirtualS float64 // sim only
}

// commCounts is the data-plane tally common to live reports and sim results.
type commCounts struct {
	bytes, segments, retries, timeouts, aborts int64
}

func (c *commCounts) add(o commCounts) {
	c.bytes += o.bytes
	c.segments += o.segments
	c.retries += o.retries
	c.timeouts += o.timeouts
	c.aborts += o.aborts
}

func fromOpStats(s collective.OpStats) commCounts {
	return commCounts{bytes: s.BytesSent, segments: s.Segments, retries: s.Retries, timeouts: s.Timeouts, aborts: s.Aborts}
}

// heapMark is a reading of the allocation counters; since stores the growth
// from the mark to now in a rep's output. Reading them stops the world, so
// both readings sit outside the timed region.
type heapMark struct {
	mallocs, bytes uint64
	f64Misses      int64
}

func markHeap() heapMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapMark{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, f64Misses: bufpool.Float64Misses()}
}

func (m heapMark) since(out *repOut) {
	now := markHeap()
	out.mallocs = now.mallocs - m.mallocs
	out.allocBytes = now.bytes - m.bytes
	out.f64Misses = now.f64Misses - m.f64Misses
}

// stepHook is the Config.ComputeDelay the benchmark installs: the product
// calls it once per computed mini-batch on the computing rank's goroutine,
// which makes it both the step counter and the delay injector. Each rank
// writes only its own padded slot; the totals are read after the run's
// goroutines have been waited for.
type stepHook struct {
	seed   int64
	hetero bool
	t0     time.Time
	ranks  []rankSlot
}

type rankSlot struct {
	steps  int64
	stamps []int64  // ns since t0; nil when not stamping
	_      [64]byte // keep neighbouring ranks off one cache line
}

func newStepHook(w workload, seed int64, stamp bool, n, itersPerRank int) *stepHook {
	h := &stepHook{seed: seed, hetero: w.hetero, ranks: make([]rankSlot, n)}
	if stamp {
		for i := range h.ranks {
			h.ranks[i].stamps = make([]int64, 0, itersPerRank)
		}
	}
	return h
}

func (h *stepHook) delay(rank, iter int) time.Duration {
	s := &h.ranks[rank]
	s.steps++
	if s.stamps != nil {
		s.stamps = append(s.stamps, int64(time.Since(h.t0)))
	}
	if h.hetero {
		return computeDelay(h.seed, rank, iter)
	}
	return 0
}

func (h *stepHook) total() int64 {
	var n int64
	for i := range h.ranks {
		n += h.ranks[i].steps
	}
	return n
}

// gapsUS returns every gap between a rank's consecutive hook calls: the
// full iteration time (compute, signal, wait, reduce) as the rank saw it.
func (h *stepHook) gapsUS() []float64 {
	var out []float64
	for i := range h.ranks {
		st := h.ranks[i].stamps
		for j := 1; j < len(st); j++ {
			out = append(out, float64(st[j]-st[j-1])/1e3)
		}
	}
	return out
}

// liveJob runs reps of one live workload.
type liveJob struct {
	w           workload
	seed        int64
	iters       int // per rank per rep; itersAll for All-Reduce reps
	itersAll    int
	train, test *data.Dataset
	// ref is the workload's reference job; nil when it has none.
	ref *refJob
}

func newLiveJob(w workload, seed int64, smoke bool) (*liveJob, error) {
	train, test, err := dataset(w, seed)
	if err != nil {
		return nil, err
	}
	j := &liveJob{w: w, seed: seed, iters: w.iters, itersAll: w.iters, train: train, test: test}
	if w.itersAllReduce > 0 {
		j.itersAll = w.itersAllReduce
	}
	if smoke {
		j.iters, j.itersAll = w.smokeIters, w.smokeIters
	}
	if w.refNominal > 0 {
		j.ref = &refJob{n: liveN, d: numParams(w), iters: w.refIters, tcp: w.tcp}
		if smoke {
			j.ref.iters = w.refSmokeIters
		}
	}
	return j, nil
}

func (j *liveJob) config(v variant, hook *stepHook) live.Config {
	iters := j.iters
	if v == vAllReduce {
		iters = j.itersAll
	}
	return live.Config{
		N: liveN, P: liveP,
		Spec: j.w.spec, Seed: j.seed,
		Train: j.train, Test: j.test,
		BatchSize:    1,
		Optimizer:    optimizer(),
		Weighting:    controller.Constant,
		Iters:        iters,
		ComputeDelay: hook.delay,
	}
}

// workloadWorld builds a fresh 8-rank world on the workload's transport.
func workloadWorld(w workload) ([]transport.Transport, error) {
	if w.tcp {
		return tcpWorld(liveN)
	}
	return preduce.NewMemWorld(liveN), nil
}

func closeWorld(world []transport.Transport) {
	for _, t := range world {
		if t != nil {
			t.Close()
		}
	}
}

// tcpWorld builds an n-rank loopback mesh on ports the kernel reports free.
// Between reserving a port and the endpoint binding it another socket can
// take it, so a failed mesh is torn down and rebuilt on fresh ports; only
// five failures in a row are an error.
func tcpWorld(n int) ([]transport.Transport, error) {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var world []transport.Transport
		if world, err = tcpWorldOnce(n); err == nil {
			return world, nil
		}
	}
	return nil, fmt.Errorf("tcp mesh: %w", err)
}

func tcpWorldOnce(n int) ([]transport.Transport, error) {
	addrs := make([]string, n)
	reserved := make([]net.Listener, 0, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			break
		}
		addrs[i] = ln.Addr().String()
		reserved = append(reserved, ln)
	}
	for _, ln := range reserved {
		ln.Close()
	}
	if len(reserved) < n {
		return nil, fmt.Errorf("could reserve only %d of %d loopback ports", len(reserved), n)
	}

	world := make([]transport.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t, err := transport.NewTCPOpts(r, addrs, transport.TCPOptions{MeshTimeout: 3 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			world[r] = t
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeWorld(world)
			return nil, err
		}
	}
	return world, nil
}

// rep runs one fresh-world rep of variant v. World construction, the
// garbage collection before it, and teardown sit outside the timed region.
func (j *liveJob) rep(v variant, mode repMode) (repOut, error) {
	if v == vReference {
		return j.referenceRep()
	}
	world, err := workloadWorld(j.w)
	if err != nil {
		return repOut{}, err
	}
	defer closeWorld(world)

	hook := newStepHook(j.w, j.seed, mode == modeObserved, liveN, j.iters)
	cfg := j.config(v, hook)
	if mode == modeTraced {
		cfg.Tracer = trace.New(trace.NewWallClock(), traceRing)
		cfg.Instruments = metrics.NewInstruments(liveN)
	}

	runtime.GC()
	var heap heapMark
	if mode == modeObserved {
		heap = markHeap()
	}

	var out repOut
	start := time.Now()
	hook.t0 = start
	switch {
	case v == vAllReduce:
		err = j.runAllReduce(cfg, world, &out)
	case j.w.wire:
		err = j.runWorkers(cfg, world, &out)
	default:
		err = j.runInProcess(cfg, world, &out)
	}
	out.wall = time.Since(start)
	if err != nil {
		return repOut{}, err
	}
	out.steps = hook.total()

	if mode == modeObserved {
		heap.since(&out)
		out.gapsUS = hook.gapsUS()
	}
	if cfg.Tracer != nil {
		if d := cfg.Tracer.Dropped(); d > 0 {
			return repOut{}, fmt.Errorf("trace ring wrapped: %d events dropped", d)
		}
		out.events = cfg.Tracer.Events()
	}
	return out, nil
}

// referenceRep runs the benchmark's own reference job in a product rep's
// place. It trains nothing, so it reports the accuracy of a rep that has
// nothing to prove; its own check is the replicas' bit-identity.
func (j *liveJob) referenceRep() (repOut, error) {
	if j.ref == nil {
		return repOut{}, fmt.Errorf("workload %s has no reference job", j.w.name)
	}
	runtime.GC()
	steps, wall, err := j.ref.rep()
	if err != nil {
		return repOut{}, err
	}
	return repOut{steps: steps, wall: wall, accuracy: 1}, nil
}

func (j *liveJob) runInProcess(cfg live.Config, world []transport.Transport, out *repOut) error {
	rep, err := live.Run(cfg, world)
	if err != nil {
		return err
	}
	for r, done := range rep.Completed {
		if !done {
			return fmt.Errorf("rank %d did not complete", r)
		}
	}
	if rep.Failures != 0 || rep.Aborts != 0 {
		return fmt.Errorf("failures=%d aborts=%d", rep.Failures, rep.Aborts)
	}
	out.memberships = int64(rep.Groups) * liveP
	out.comms = fromOpStats(rep.Comms)
	out.accuracy = rep.FinalAccuracy
	return nil
}

// runWorkers is the multi-process deployment shape inside one process: one
// RunWorker per rank, rank 0 hosting the controller service, every control
// message crossing the transport.
func (j *liveJob) runWorkers(cfg live.Config, world []transport.Transport, out *repOut) error {
	reps := make([]*live.Report, len(world))
	errs := make([]error, len(world))
	var wg sync.WaitGroup
	for r := range world {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			reps[r], errs[r] = live.RunWorker(cfg, world[r], r == 0)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	var comms collective.OpStats
	for r, rep := range reps {
		if len(rep.Completed) != 1 || !rep.Completed[0] {
			return fmt.Errorf("rank %d did not complete", r)
		}
		out.memberships += int64(rep.Groups)
		comms.Merge(rep.Comms)
	}
	out.comms = fromOpStats(comms)
	out.accuracy = reps[0].FinalAccuracy
	return nil
}

func (j *liveJob) runAllReduce(cfg live.Config, world []transport.Transport, out *repOut) error {
	rep, err := live.RunAllReduce(cfg, world)
	if err != nil {
		return err
	}
	for r, it := range rep.WorkerIters {
		if it != cfg.Iters {
			return fmt.Errorf("rank %d stopped at iteration %d of %d", r, it, cfg.Iters)
		}
	}
	out.memberships = int64(rep.Groups) * liveN
	out.comms = fromOpStats(rep.Comms)
	out.accuracy = rep.FinalAccuracy
	// All-Reduce is synchronous and the ring order is fixed, so the trained
	// replica — and with it the accuracy — is a function of the seed alone.
	out.digest = fmt.Sprintf("%.17g", rep.FinalAccuracy)
	return nil
}
