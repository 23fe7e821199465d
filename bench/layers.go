package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	preduce "partialreduce"
	"partialreduce/internal/collective"
	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/optim"
	"partialreduce/internal/tensor"
	"partialreduce/internal/transport"
)

// This file times each layer's public calls in isolation, at the sizes the
// workload uses, recording the begin and end of every call (or of every
// small batch of calls, where one call is shorter than reading the clock
// twice) and reporting the median.

// sampleCalls calls fn back to back for about budget, at least minSamples
// times, and returns each sample's duration per call in nanoseconds. Calls
// shorter than ~20 µs are timed in batches so that the two clock readings
// stay under 1% of a sample.
func sampleCalls(budget time.Duration, minSamples int, fn func()) []float64 {
	timeBatch := func(batch int) time.Duration {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		return time.Since(start)
	}
	// Size the batch on the faster of two trials, after a warm-up call: a
	// cold first call must not pass for a long one.
	fn()
	batch := 1
	for batch < 1<<16 && min(timeBatch(batch), timeBatch(batch)) < 20*time.Microsecond {
		batch *= 2
	}
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < minSamples || time.Now().Before(deadline) {
		samples = append(samples, float64(timeBatch(batch))/float64(batch))
	}
	return samples
}

// canarySink keeps the canary's result live.
var canarySink float64

// canaryGBps is the benchmark's own host probe: a streaming read-modify-
// write over 32 MiB, best of fifteen passes (about 50 ms). It shares no code with the
// product, so a run whose canary moved was disturbed by the host.
func canaryGBps() float64 {
	const n = 4 << 20
	buf := make([]float64, n)
	best := math.Inf(1)
	for pass := 0; pass < 15; pass++ {
		start := time.Now()
		for i := range buf {
			buf[i] = buf[i]*0.5 + 1
		}
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	canarySink = buf[n/2]
	return 16 * n / best / 1e9
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// ringTimings runs k back-to-back collectives over group on world (one
// goroutine per member) and returns the per-call durations seen by the
// first member, plus every member's final buffer.
func ringTimings(world []transport.Transport, group []int, d, k int, firstOp uint32,
	call func(t transport.Transport, op uint32, buf []float64) error) ([]float64, [][]float64, error) {
	bufs := make([][]float64, len(group))
	for i, rank := range group {
		bufs[i] = make([]float64, d)
		for e := range bufs[i] {
			bufs[i][e] = unitHash(uint64(rank), uint64(e), 7)
		}
	}
	durs := make([]float64, 0, k)
	errs := make([]error, len(group))
	var wg sync.WaitGroup
	for i, rank := range group {
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			for c := 0; c < k; c++ {
				start := time.Now()
				if err := call(world[rank], firstOp+uint32(c), bufs[i]); err != nil {
					errs[i] = err
					// Unblock the peers still waiting on this member.
					closeWorld(world)
					return
				}
				if i == 0 {
					durs = append(durs, float64(time.Since(start)))
				}
			}
		}(i, rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return durs, bufs, nil
}

func ranks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func numParams(w workload) int {
	return w.spec.Build(1).NumParams()
}

// collectiveCheck is the replica-identity check the end-to-end reps cannot
// make (RunAllReduce does not expose its replicas): one full-world mean
// all-reduce at the workload's payload size on the workload's transport
// must leave every rank with bit-identical data equal to the serial mean.
func collectiveCheck(w workload) (bool, error) {
	world, err := workloadWorld(w)
	if err != nil {
		return false, err
	}
	defer closeWorld(world)
	d := numParams(w)
	want := make([]float64, d)
	for e := range want {
		for rank := 0; rank < liveN; rank++ {
			want[e] += unitHash(uint64(rank), uint64(e), 7)
		}
		want[e] /= liveN
	}
	_, bufs, err := ringTimings(world, ranks(liveN), d, 1, 1, func(t transport.Transport, op uint32, buf []float64) error {
		return collective.AllReduceMeanOpts(t, ranks(liveN), op, buf, collective.Options{})
	})
	if err != nil {
		return false, err
	}
	return identical(bufs) && closeTo(bufs[0], want, 1e-12), nil
}

func identical(bufs [][]float64) bool {
	for _, b := range bufs[1:] {
		for e, v := range b {
			if math.Float64bits(v) != math.Float64bits(bufs[0][e]) {
				return false
			}
		}
	}
	return true
}

func closeTo(got, want []float64, tol float64) bool {
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			return false
		}
	}
	return true
}

// pingPong times round trips of an elems-element payload between ranks 0
// and 1 of world for about budget and returns the per-trip nanoseconds.
func pingPong(world []transport.Transport, elems int, budget time.Duration, minSamples int) ([]float64, error) {
	const tagPing, tagPong = 1 << 30, 1<<30 + 1
	payload := make([]float64, elems)
	stop := []float64{0} // a one-element message ends the echo loop
	echoErr := make(chan error, 1)
	go func() {
		dst := make([]float64, elems)
		for {
			n, err := world[1].RecvInto(0, tagPing, dst)
			if err != nil || n == len(stop) {
				echoErr <- err
				return
			}
			if err := world[1].Send(0, tagPong, dst[:n]); err != nil {
				echoErr <- err
				return
			}
		}
	}()

	dst := make([]float64, elems)
	var tripErr error
	trip := func() {
		if tripErr != nil {
			return
		}
		if tripErr = world[0].Send(1, tagPing, payload); tripErr == nil {
			_, tripErr = world[0].RecvInto(1, tagPong, dst)
		}
	}
	for i := 0; i < 20; i++ {
		trip() // connection and pool warm-up
	}
	var samples []float64
	deadline := time.Now().Add(budget)
	for tripErr == nil && (len(samples) < minSamples || time.Now().Before(deadline)) {
		start := time.Now()
		trip()
		samples = append(samples, float64(time.Since(start)))
	}
	if tripErr != nil {
		closeWorld(world) // the echo loop may be parked in RecvInto
		<-echoErr
		return nil, tripErr
	}
	if err := world[0].Send(1, tagPing, stop); err != nil {
		closeWorld(world)
		<-echoErr
		return nil, err
	}
	if err := <-echoErr; err != nil {
		return nil, err
	}
	return samples, nil
}

// layerBudget scales the isolated timings to the run length: the shares
// handed out below add up to 0.42 of it (about 9 s at the default 22 s).
type layerBudget struct {
	total time.Duration
	smoke bool
}

func (b layerBudget) of(share float64) time.Duration {
	if b.smoke {
		return 0
	}
	return time.Duration(float64(b.total) * share)
}

func (b layerBudget) minSamples(n int) int {
	if b.smoke {
		return 3
	}
	return n
}

// layerTimings measures every isolated layer metric for workload w.
func layerTimings(w workload, seed int64, b layerBudget, r *report) {
	d := numParams(w)
	train, _, err := dataset(w, seed)
	if err != nil {
		r.check(false, "layer inputs: %v", err)
		return
	}

	// model: one local step exactly as the engine's worker loop does it.
	{
		m := w.spec.Build(1)
		opt := optim.NewSGD(optimizer(), m.NumParams())
		sampler := data.NewSampler(train, 1)
		grad := tensor.NewVector(m.NumParams())
		var batch *data.Batch
		ns := sampleCalls(b.of(0.03), b.minSamples(20), func() {
			batch = sampler.Sample(batch, 1)
			m.Gradient(grad, batch)
			opt.Update(m.Params(), grad, 1)
		})
		r.setLatency("model.step_us", scale(ns, 1e-3))
	}

	// tensor: the reduce kernel on one ring chunk of a P-member group.
	{
		n := max(d/liveP, 1)
		dst, src := make([]float64, n), make([]float64, n)
		ns := sampleCalls(b.of(0.02), b.minSamples(20), func() { tensor.AddScaled(dst, src, 1) })
		gbps := make([]float64, len(ns))
		for i, v := range ns {
			gbps[i] = float64(16*n) / v
		}
		r.setSamples("tensor.addscaled_gbps", gbps)
	}

	// transport: frame encode and Mem / TCP ping-pongs.
	{
		payload := make([]float64, collective.DefaultSegmentElems)
		buf := make([]byte, 0, transport.FrameLen(payload))
		ns := sampleCalls(b.of(0.02), b.minSamples(20), func() { buf = transport.EncodeFrameInto(buf[:0], 42, payload) })
		gbps := make([]float64, len(ns))
		for i, v := range ns {
			gbps[i] = float64(transport.FrameLen(payload)) / v
		}
		r.setSamples("transport.encode_gbps", gbps)

		mem := preduce.NewMemWorld(2)
		ns, err := pingPong(mem, collective.DefaultSegmentElems, b.of(0.03), b.minSamples(50))
		closeWorld(mem)
		r.check(err == nil, "mem ping-pong: %v", err)
		r.setLatency("transport.mem_seg_rtt_us", scale(ns, 1e-3))

		var builds []float64
		for i := 0; i < b.minSamples(5); i++ {
			start := time.Now()
			world, err := tcpWorld(liveN)
			r.check(err == nil, "tcp mesh build: %v", err)
			if err == nil {
				builds = append(builds, float64(time.Since(start))/1e6)
				closeWorld(world)
			}
		}
		r.setSamples("transport.tcp_mesh_setup_ms", builds)

		tcp, err := tcpWorld(2)
		r.check(err == nil, "tcp pair: %v", err)
		if err == nil {
			ns, err := pingPong(tcp, collective.DefaultSegmentElems, b.of(0.04), b.minSamples(50))
			r.check(err == nil, "tcp segment ping-pong: %v", err)
			r.setLatency("transport.tcp_seg_rtt_us", scale(ns, 1e-3))
			// Control messages are [iter, epoch] signals and short replies.
			ns, err = pingPong(tcp, 3, b.of(0.04), b.minSamples(50))
			r.check(err == nil, "tcp control ping-pong: %v", err)
			r.setLatency("transport.tcp_ctl_rtt_us", scale(ns, 1e-3))
			r.set("transport.tcp_ctl_rtt_p99_us", percentile(scale(ns, 1e-3), 99))
			closeWorld(tcp)
		}
	}

	// collective: back-to-back group and world reduces at D on the
	// workload's transport.
	{
		world, err := workloadWorld(w)
		r.check(err == nil, "collective world: %v", err)
		if err == nil {
			group := ranks(liveP)
			groupCall := func(t transport.Transport, op uint32, buf []float64) error {
				return collective.WeightedAverageOpts(t, group, op, buf, 1.0/liveP, collective.Options{})
			}
			all := ranks(liveN)
			worldCall := func(t transport.Transport, op uint32, buf []float64) error {
				return collective.AllReduceMeanOpts(t, all, op, buf, collective.Options{})
			}
			op := uint32(1)
			timeRing := func(name string, members []int, share float64,
				call func(transport.Transport, uint32, []float64) error) []float64 {
				// Three calls warm the pools and size the measured batch.
				probe, _, err := ringTimings(world, members, d, 3, op, call)
				op += 3
				if err != nil {
					r.check(false, "%s: %v", name, err)
					return nil
				}
				k := b.minSamples(10)
				if per := median(probe); per > 0 {
					k = max(k, min(int(float64(b.of(share))/per), 5000))
				}
				ns, bufs, err := ringTimings(world, members, d, k, op, call)
				op += uint32(k)
				r.check(err == nil && identical(bufs), "%s: err=%v, members bit-identical=%t", name, err, err == nil && identical(bufs))
				r.setLatency(name, scale(ns, 1e-6))
				return ns
			}
			ns := timeRing("collective.group_reduce_ms", group, 0.07, groupCall)
			busbw := make([]float64, len(ns))
			for i, v := range ns {
				busbw[i] = 2 * float64(liveP-1) / liveP * float64(8*d) / v
			}
			r.setSamples("collective.group_busbw_gbps", busbw)
			timeRing("collective.world_reduce_ms", all, 0.07, worldCall)
			closeWorld(world)
		}
	}

	// controller: round-robin ready signals, every third one forms a group.
	for _, c := range []struct {
		name string
		n    int
	}{{"controller.ready_ns", liveN}, {"controller.ready_n32_ns", simN}} {
		ctrl, err := controller.New(controller.Config{N: c.n, P: liveP})
		r.check(err == nil, "%s: %v", c.name, err)
		if err != nil {
			continue
		}
		iters := make([]int, c.n)
		next := 0
		var readyErr error
		ns := sampleCalls(b.of(0.02), b.minSamples(20), func() {
			wk := next % c.n
			next++
			iters[wk]++
			if _, err := ctrl.Ready(controller.Signal{Worker: wk, Iter: iters[wk]}); err != nil {
				readyErr = err
			}
		})
		r.check(readyErr == nil, "%s: %v", c.name, readyErr)
		r.setLatency(c.name, ns)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v * f
	}
	return out
}
