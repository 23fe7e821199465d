package live

import (
	"errors"
	"math"
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partialreduce/internal/collective"
	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
	"partialreduce/internal/transport"
)

func liveConfig(t *testing.T, seed int64) Config {
	t.Helper()
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: 4, Dim: 12, Examples: 1600, Separation: 3.2, Noise: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.8)
	return Config{
		N:         4,
		P:         2,
		Spec:      model.Spec{Inputs: 12, Hidden: []int{16}, Classes: 4},
		Seed:      seed,
		Train:     train,
		Test:      test,
		BatchSize: 16,
		Optimizer: optim.Config{LR: 0.05, Momentum: 0.9},
		Iters:     120,
	}
}

func memWorld(n int) []transport.Transport {
	eps := transport.NewMem(n)
	world := make([]transport.Transport, n)
	for i, e := range eps {
		world[i] = e
	}
	return world
}

func TestConfigValidate(t *testing.T) {
	good := liveConfig(t, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.N = 1 },
		func(c *Config) { c.P = 1 },
		func(c *Config) { c.P = c.N + 1 },
		func(c *Config) { c.Train = nil },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.Iters = 0 },
		func(c *Config) { c.Optimizer.LR = 0 },
	}
	for i, mutate := range mutations {
		cfg := liveConfig(t, 1)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestNegativeSegmentRejected: a negative segment size (once the
// "unsegmented" sentinel) is an error at both boundaries that take one.
func TestNegativeSegmentRejected(t *testing.T) {
	cfg := liveConfig(t, 1)
	cfg.SegmentElems = -1
	world := memWorld(2)
	for boundary, err := range map[string]error{
		"live.Config.Validate": cfg.Validate(),
		"collective.AllReduceSumOpts": collective.AllReduceSumOpts(world[0], []int{0, 1}, 1,
			[]float64{1}, collective.Options{SegmentElems: -1}),
	} {
		if err == nil {
			t.Errorf("%s accepted SegmentElems -1", boundary)
		}
	}
}

func TestRunRejectsWorldMismatch(t *testing.T) {
	cfg := liveConfig(t, 2)
	if _, err := Run(cfg, memWorld(2)); err == nil {
		t.Fatal("world size mismatch accepted")
	}
}

func TestLiveTrainingConverges(t *testing.T) {
	cfg := liveConfig(t, 3)
	rep, err := Run(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalAccuracy < 0.9 {
		t.Fatalf("live accuracy %.3f, want >= 0.9", rep.FinalAccuracy)
	}
	if rep.Groups == 0 {
		t.Fatal("no groups executed")
	}
	for id, it := range rep.WorkerIters {
		if it < cfg.Iters {
			t.Fatalf("worker %d stopped at %d/%d iterations", id, it, cfg.Iters)
		}
	}
}

// countingBuilder counts the models built from it.
type countingBuilder struct {
	model.Builder
	builds *atomic.Int32
}

func (b countingBuilder) Build(seed int64) model.Model {
	b.builds.Add(1)
	return b.Builder.Build(seed)
}

// TestRunSharesInit: Run owns every rank, so the model, the initial
// parameters and the shards are built once and shared read-only — not once
// per rank, as N independent RunWorker calls would. With D the model's size
// in bytes a run allocates the base, its initial-parameter copy and the final
// average once (3 D) and a replica, a spare and the optimizer's velocity per
// rank (3 D each); building and copying per rank would add 2 D per rank. The
// bound sits halfway.
func TestRunSharesInit(t *testing.T) {
	cfg := liveConfig(t, 7)
	var builds atomic.Int32
	spec := model.Spec{Inputs: 12, Hidden: []int{8192}, Classes: 4}
	cfg.Spec = countingBuilder{spec, &builds}
	cfg.BatchSize, cfg.Iters = 1, 1
	d := uint64(8 * spec.Build(1).NumParams())

	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if _, err := Run(cfg, memWorld(cfg.N)); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&after)
	if n := builds.Load(); n != 1 {
		t.Fatalf("model built %d times for %d ranks, want once", n, cfg.N)
	}
	n := uint64(cfg.N)
	if got, bound := after.TotalAlloc-before.TotalAlloc, (3+4*n)*d; got > bound {
		t.Fatalf("Run allocated %d bytes = %.1f model sizes for %d ranks, want at most %d (shared set-up is %d)",
			got, float64(got)/float64(d), n, 3+4*n, 3+3*n)
	}
}

func TestLiveDynamicWeighting(t *testing.T) {
	cfg := liveConfig(t, 4)
	cfg.Weighting = controller.Dynamic
	// Make worker 0 a straggler so dynamic weights actually engage.
	cfg.ComputeDelay = func(worker, iter int) time.Duration {
		if worker == 0 {
			return 2 * time.Millisecond
		}
		return 0
	}
	cfg.Iters = 60
	rep, err := Run(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalAccuracy < 0.85 {
		t.Fatalf("dynamic live accuracy %.3f", rep.FinalAccuracy)
	}
}

func TestLiveLargerGroups(t *testing.T) {
	cfg := liveConfig(t, 5)
	cfg.N, cfg.P = 6, 3
	rep, err := Run(cfg, memWorld(6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalAccuracy < 0.9 {
		t.Fatalf("P=3 live accuracy %.3f", rep.FinalAccuracy)
	}
}

// The full prototype over real sockets: 3 workers, TCP mesh, P=2.
func TestLiveOverTCP(t *testing.T) {
	cfg := liveConfig(t, 6)
	cfg.N, cfg.P = 3, 2
	cfg.Iters = 60

	addrs := make([]string, cfg.N)
	lns := make([]interface{ Close() error }, 0, cfg.N)
	for i := range addrs {
		ln, err := listenFree()
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		lns = append(lns, ln)
	}
	for _, ln := range lns {
		ln.Close()
	}

	world := make([]transport.Transport, cfg.N)
	errc := make(chan error, cfg.N)
	done := make(chan int, cfg.N)
	for i := range world {
		i := i
		go func() {
			tcp, err := transport.NewTCP(i, addrs)
			if err != nil {
				errc <- err
				return
			}
			world[i] = tcp
			done <- i
		}()
	}
	for range world {
		select {
		case err := <-errc:
			t.Fatal(err)
		case <-done:
		}
	}
	defer func() {
		for _, w := range world {
			w.Close()
		}
	}()

	rep, err := Run(cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalAccuracy < 0.85 {
		t.Fatalf("TCP live accuracy %.3f", rep.FinalAccuracy)
	}
	if rep.Groups == 0 {
		t.Fatal("no groups over TCP")
	}
}

func listenFree() (interface {
	Close() error
	Addr() net.Addr
}, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func TestLiveAllReduceConverges(t *testing.T) {
	cfg := liveConfig(t, 30)
	cfg.Iters = 100
	rep, err := RunAllReduce(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalAccuracy < 0.9 {
		t.Fatalf("live AR accuracy %.3f", rep.FinalAccuracy)
	}
	if rep.Groups != cfg.Iters {
		t.Fatalf("rounds: %d want %d", rep.Groups, cfg.Iters)
	}
}

// cloneRecorder records every replica cloned from the model it wraps.
type cloneRecorder struct {
	model.Model
	mu     *sync.Mutex
	clones *[]model.Model
}

func (m cloneRecorder) Clone() model.Model {
	c := m.Model.Clone()
	m.mu.Lock()
	*m.clones = append(*m.clones, c)
	m.mu.Unlock()
	return c
}

// recordingBuilder builds cloneRecorders.
type recordingBuilder struct {
	model.Builder
	mu     sync.Mutex
	clones []model.Model
}

func (b *recordingBuilder) Build(seed int64) model.Model {
	return cloneRecorder{b.Builder.Build(seed), &b.mu, &b.clones}
}

// TestLiveAllReduceExchangeMatchesRing: the 276-parameter model's gradient
// all-reduce takes the one-frame exchange at the default geometry and the
// ring at 1-element segments; the two trainings end on the same accuracy and
// the same parameters, bit for bit, on every replica.
func TestLiveAllReduceExchangeMatchesRing(t *testing.T) {
	final := func(seg int) (float64, []model.Model, int64) {
		cfg := liveConfig(t, 36)
		cfg.Iters = 60
		cfg.SegmentElems = seg
		rb := &recordingBuilder{Builder: cfg.Spec}
		cfg.Spec = rb
		rep, err := RunAllReduce(cfg, memWorld(cfg.N))
		if err != nil {
			t.Fatal(err)
		}
		if len(rb.clones) != cfg.N {
			t.Fatalf("seg=%d: %d replicas recorded, want %d", seg, len(rb.clones), cfg.N)
		}
		return rep.FinalAccuracy, rb.clones, rep.Comms.Segments
	}
	exAcc, exModels, exSegs := final(0)
	ringAcc, ringModels, ringSegs := final(1)
	if exSegs >= ringSegs {
		t.Fatalf("default geometry sent %d frames, 1-element ring %d: the exchange was not taken", exSegs, ringSegs)
	}
	if math.Float64bits(exAcc) != math.Float64bits(ringAcc) {
		t.Fatalf("final accuracy: exchange %v, ring %v", exAcc, ringAcc)
	}
	want := ringModels[0].Params()
	for i, m := range append(exModels, ringModels...) {
		for j, v := range m.Params() {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("replica %d param %d: %x, ring rank 0 %x", i, j, v, want[j])
			}
		}
	}
}

// RunAllReduce checks its own config (it does not run Validate, which asks
// for P-Reduce's knobs): every bad field is an error, never a panic.
func TestLiveAllReduceValidation(t *testing.T) {
	cfg := liveConfig(t, 31)
	if _, err := RunAllReduce(cfg, memWorld(2)); err == nil {
		t.Fatal("world mismatch accepted")
	}
	for name, mutate := range map[string]func(*Config){
		"zero iters":       func(c *Config) { c.Iters = 0 },
		"nil spec":         func(c *Config) { c.Spec = nil },
		"negative segment": func(c *Config) { c.SegmentElems = -1 },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := RunAllReduce(bad, memWorld(cfg.N)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// The headline property, live: with a straggler injected, P-Reduce finishes
// the same per-worker iteration count in less wall time than All-Reduce,
// because only AR's barrier waits for the slow worker.
func TestLiveStragglerTolerance(t *testing.T) {
	delay := func(worker, iter int) time.Duration {
		if worker == 0 {
			return 2 * time.Millisecond
		}
		return time.Microsecond
	}
	cfg := liveConfig(t, 32)
	cfg.Iters = 40
	cfg.ComputeDelay = delay

	arRep, err := RunAllReduce(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	prRep, err := Run(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	// AR pays the straggler's delay every round (~80ms minimum); P-Reduce
	// lets the fast workers proceed. Allow generous scheduling noise.
	if prRep.WallTime >= arRep.WallTime {
		t.Fatalf("P-Reduce (%v) not faster than AR (%v) with a live straggler",
			prRep.WallTime, arRep.WallTime)
	}
}

// Failure injection: closing every endpoint mid-run must fail collectives
// and unblock all workers rather than deadlocking the run.
func TestLiveTransportFailureDoesNotHang(t *testing.T) {
	cfg := liveConfig(t, 33)
	cfg.Iters = 5000 // long enough that the close lands mid-run
	world := memWorld(cfg.N)

	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		rep, runErr = Run(cfg, world)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	for _, w := range world {
		w.Close()
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run hung after transport failure")
	}
	// Either the run failed cleanly, or it had already finished.
	if runErr == nil && rep == nil {
		t.Fatal("no report and no error")
	}
}

// runWorkerWorld runs one RunWorker per rank, rank 0 hosting the controller.
// A rank the fault plan killed fails
// with its own endpoint down: that error is the expected end and leaves its
// report nil; any other error fails the test.
func runWorkerWorld(t *testing.T, cfg Config, world []transport.Transport) []*Report {
	t.Helper()
	reports := make([]*Report, cfg.N)
	errs := make([]error, cfg.N)
	var wg sync.WaitGroup
	for r := 0; r < cfg.N; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[r], errs[r] = RunWorker(cfg, world[r], r == 0)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		var down *transport.PeerDownError
		if err != nil && !(errors.As(err, &down) && down.Peer == r) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return reports
}

// The multi-process worker protocol (controller over the transport) trains
// to the same quality as the in-process runtime.
func TestRunWorkerProtocol(t *testing.T) {
	cfg := liveConfig(t, 40)
	cfg.Iters = 100
	reports := runWorkerWorld(t, cfg, memWorld(cfg.N))
	if reports[0].FinalAccuracy < 0.9 {
		t.Fatalf("multi-process accuracy %.3f", reports[0].FinalAccuracy)
	}
	total := 0
	for _, rep := range reports {
		total += rep.Groups
	}
	if total == 0 {
		t.Fatal("no groups executed")
	}
	if total%cfg.P != 0 {
		t.Fatalf("total member-group participations %d not divisible by P=%d", total, cfg.P)
	}
	// Only the host's report carries the controller's view of the run.
	if len(reports[0].Alive) != cfg.N || reports[1].Alive != nil {
		t.Fatalf("alive vectors: host %v, non-host %v", reports[0].Alive, reports[1].Alive)
	}
}

// slowGatherRoot is the root's endpoint with a stalled final average: each
// receive of a final-model frame waits first, and the moment the frame has
// been consumed is recorded per sender.
type slowGatherRoot struct {
	transport.Transport
	mu       sync.Mutex
	consumed map[int]time.Time
}

func (s *slowGatherRoot) RecvIntoTimeout(from int, tag uint64, dst []float64, d time.Duration) (int, error) {
	if tag != ctrlModelTag {
		return s.Transport.RecvIntoTimeout(from, tag, dst, d)
	}
	time.Sleep(20 * time.Millisecond)
	n, err := s.Transport.RecvIntoTimeout(from, tag, dst, d)
	s.mu.Lock()
	s.consumed[from] = time.Now()
	s.mu.Unlock()
	return n, err
}

// TestRunWorkerHeldUntilGathered: a non-host rank's process closes its
// endpoint when RunWorker returns, and a transport drops the frames still
// queued from a closed peer — so no non-host rank may return before the root
// has consumed its final-model frame, however long the root takes.
func TestRunWorkerHeldUntilGathered(t *testing.T) {
	cfg := liveConfig(t, 43)
	cfg.Iters = 20
	world := memWorld(cfg.N)
	root := &slowGatherRoot{Transport: world[0], consumed: map[int]time.Time{}}
	world[0] = root

	returned := make([]time.Time, cfg.N)
	errs := make([]error, cfg.N)
	var wg sync.WaitGroup
	for r := 0; r < cfg.N; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[r] = RunWorker(cfg, world[r], r == 0)
			returned[r] = time.Now()
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < cfg.N; r++ {
		at, ok := root.consumed[r]
		if !ok {
			t.Fatalf("root never consumed rank %d's final-model frame", r)
		}
		if returned[r].Before(at) {
			t.Errorf("rank %d returned %v before the root consumed its final-model frame", r, at.Sub(returned[r]))
		}
	}
}

// lossyModelSender is a rank's endpoint that drops its final-model frame, or
// sends it one parameter short.
type lossyModelSender struct {
	transport.Transport
	truncate bool
}

func (s lossyModelSender) Send(to int, tag uint64, p []float64) error {
	switch {
	case tag != ctrlModelTag:
		return s.Transport.Send(to, tag, p)
	case s.truncate:
		return s.Transport.Send(to, tag, p[:len(p)-1])
	}
	return nil
}

// TestRunWorkerRefusesBadFinalModel: a final-model frame that never arrives
// fails the host's RunWorker with a timeout under CollectiveTimeout, and one
// of the wrong length with an error naming the sender; neither hangs the
// host, and every other rank is still released.
func TestRunWorkerRefusesBadFinalModel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		truncate bool
		want     func(error) bool
	}{
		{"dropped", false, transport.IsTimeout},
		{"truncated", true, func(err error) bool { return strings.Contains(err.Error(), "parameters, want") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(t, 43)
			cfg.Iters = 20
			cfg.CollectiveTimeout = 500 * time.Millisecond
			world := memWorld(cfg.N)
			world[1] = lossyModelSender{Transport: world[1], truncate: tc.truncate}

			errs := make([]error, cfg.N)
			var wg sync.WaitGroup
			for r := 0; r < cfg.N; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[r] = RunWorker(cfg, world[r], r == 0)
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("RunWorker hung on a bad final-model frame")
			}
			if err := errs[0]; err == nil || !tc.want(err) || !strings.Contains(err.Error(), "rank 1") {
				t.Fatalf("host: err = %v, want a %s-frame error naming rank 1", err, tc.name)
			}
			for r := 1; r < cfg.N; r++ {
				if errs[r] != nil {
					t.Errorf("rank %d: %v", r, errs[r])
				}
			}
		})
	}
}

func TestRunWorkerDynamicOverTCP(t *testing.T) {
	cfg := liveConfig(t, 41)
	cfg.N, cfg.P = 3, 2
	cfg.Iters = 60
	cfg.Weighting = controller.Dynamic
	cfg.Approx = controller.ClosestIteration

	addrs := make([]string, cfg.N)
	for i := range addrs {
		ln, err := listenFree()
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	world := make([]transport.Transport, cfg.N)
	var wg sync.WaitGroup
	for i := range world {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tcp, err := transport.NewTCP(i, addrs)
			if err != nil {
				t.Errorf("rank %d: %v", i, err)
				return
			}
			world[i] = tcp
		}()
	}
	wg.Wait()
	for _, w := range world {
		if w == nil {
			t.Fatal("mesh incomplete")
		}
	}
	defer func() {
		for _, w := range world {
			w.Close()
		}
	}()
	reports := runWorkerWorld(t, cfg, world)
	if reports[0].FinalAccuracy < 0.85 {
		t.Fatalf("TCP multi-process accuracy %.3f", reports[0].FinalAccuracy)
	}
}

func TestRunWorkerValidation(t *testing.T) {
	cfg := liveConfig(t, 42)
	world := memWorld(cfg.N + 1)
	if _, err := RunWorker(cfg, world[0], true); err == nil {
		t.Fatal("world size mismatch accepted")
	}
	// Controller must be hosted on rank 0.
	w2 := memWorld(cfg.N)
	if _, err := RunWorker(cfg, w2[1], true); err == nil {
		t.Fatal("controller on rank 1 accepted")
	}
}
