// Package collective implements the data-moving collective operations the
// live runtime uses: ring all-reduce (reduce-scatter followed by all-gather,
// the bandwidth-optimal algorithm of Patarasuk & Yuan that the paper's
// prototype uses through Gloo), and the joiner's bootstrap transfer. All
// collectives operate over an arbitrary subgroup of ranks, which is exactly
// what P-Reduce needs: each controller-formed group runs its own collective,
// and disjoint groups run concurrently without interference.
//
// Data plane (see DESIGN.md): there is one reduction, ReduceInto, and the sum,
// mean and weighted-average entry points are its in-place wrappers. It is a
// ring whose steps move their chunk in segments of the transport's FrameElems
// (or an explicit Options.SegmentElems) elements, pipelined Gloo-style, or —
// when 4(g−1)·n fits one segment and there is no retry budget — a one-frame
// exchange with the same sums in the same order. Receives land via
// RecvIntoTimeout in pooled or in-place buffers and the weighting, the sum
// and the post-scale are one pass on the tensor.ScaleAddInto kernel, so a
// steady-state operation performs zero heap allocations. Per-operation
// counters (bytes, phase wall time, segments) accumulate into OpStats.
package collective

import (
	"fmt"
	"time"

	"partialreduce/internal/bufpool"
	"partialreduce/internal/tensor"
	"partialreduce/internal/trace"
	"partialreduce/internal/transport"
)

// DefaultSegmentElems is the in-process transport's frame size, the segment
// a ring over transport.Mem uses by default, in float64 elements (32 KiB):
// small enough that the segment being reduced and the one in flight both sit
// in L1/L2. Chosen by sweeping {1,2,4,8,16,64}Ki on a 4-rank in-process ring
// over 1M elements (see BenchmarkRingSegmented). Other transports set their
// own size (transport.Transport.FrameElems).
const DefaultSegmentElems = 4 * 1024

// Tag layout: callers supply an operation id unique per collective instance
// (e.g. the P-Reduce group sequence number); bits 16–23 carry the retry
// epoch (bits 19–23) and phase (bits 16–18), and the low 16 bits carry the
// virtual step — ring step × segments-per-step + segment index. segsPerStep
// is clamped so the virtual step never overflows 16 bits. Epoch 0 tags are
// identical to the pre-retry layout, so the zero-policy path is unchanged on
// the wire.
func tag(opID uint32, phase, step int) uint64 {
	return uint64(opID)<<24 | uint64(phase)<<16 | uint64(step)
}

// epochPhase folds a retry epoch into the 8-bit phase byte: epoch<<3 | phase.
// Phases fit 3 bits (1–3; bootstrap 7), leaving 5 bits ≡ MaxEpochs retry
// epochs. A retry attempt uses fresh tags everywhere, so stale frames from the
// failed attempt can never alias the new one.
func epochPhase(epoch, phase int) int { return epoch<<3 | phase }

// MaxEpochs is the number of distinguishable retry epochs per operation; a
// RetryPolicy's attempts are clamped to it.
const MaxEpochs = 32

const (
	phaseReduceScatter = 1
	phaseAllGather     = 2
	phaseExchange      = 3
)

// maxVirtualStep bounds the step field of a tag.
const maxVirtualStep = 1 << 16

// OpStats accumulates per-operation data-plane counters. Collectives add to
// the struct passed via Options; one OpStats must not be shared by
// concurrently running collectives (give each goroutine its own and Merge).
type OpStats struct {
	// Ops counts completed collective operations.
	Ops int64
	// BytesSent and BytesRecv count payload bytes through the transport
	// (8 bytes per float64 element; frame headers excluded).
	BytesSent int64
	BytesRecv int64
	// Segments counts pipeline segments sent (an exchange: one per peer).
	Segments int64
	// ReduceScatter and AllGather are wall time spent in the two ring
	// phases (an exchange: its local sum and its input exchange).
	ReduceScatter time.Duration
	AllGather     time.Duration
	// Retries counts retried attempts after a receive deadline expired,
	// Timeouts counts deadline expiries observed, and Aborts counts
	// operations abandoned after exhausting their retry budget (or aborted
	// by the runtime's recovery path when counted there).
	Retries  int64
	Timeouts int64
	Aborts   int64
}

// Merge adds o into s.
func (s *OpStats) Merge(o OpStats) {
	s.Ops += o.Ops
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.Segments += o.Segments
	s.ReduceScatter += o.ReduceScatter
	s.AllGather += o.AllGather
	s.Retries += o.Retries
	s.Timeouts += o.Timeouts
	s.Aborts += o.Aborts
}

// String renders a one-line summary.
func (s OpStats) String() string {
	return fmt.Sprintf("ops=%d sent=%.1fMB recv=%.1fMB segments=%d rs=%s ag=%s retries=%d timeouts=%d aborts=%d",
		s.Ops, float64(s.BytesSent)/1e6, float64(s.BytesRecv)/1e6, s.Segments,
		s.ReduceScatter.Round(time.Microsecond), s.AllGather.Round(time.Microsecond),
		s.Retries, s.Timeouts, s.Aborts)
}

// RetryPolicy bounds and paces collective retry after receive timeouts.
// The zero value means "one attempt, no retry" — today's behavior. Backoff
// is exponential with seeded jitter: attempt k (0-based) sleeps
// min(MaxDelay, BaseDelay·Multiplier^k) scaled by a deterministic factor in
// [1−Jitter, 1+Jitter] drawn from a stream seeded by (Seed, opID), so a run
// with the same seed reproduces the identical retry trace.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget (clamped to [1, MaxEpochs]);
	// 0 means 1.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (0: no sleep).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0: uncapped).
	MaxDelay time.Duration
	// Multiplier grows the backoff per retry (<= 0 treated as 1: constant
	// backoff).
	Multiplier float64
	// Jitter in [0, 1] spreads the backoff deterministically per seed.
	Jitter float64
	// Seed drives the jitter stream.
	Seed int64
}

// attempts returns the clamped attempt budget.
func (p RetryPolicy) attempts() int {
	a := p.MaxAttempts
	if a <= 0 {
		a = 1
	}
	if a > MaxEpochs {
		a = MaxEpochs
	}
	return a
}

// Validate reports whether the policy is usable.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("collective: negative MaxAttempts")
	}
	if p.BaseDelay < 0 || p.MaxDelay < 0 {
		return fmt.Errorf("collective: negative retry delay")
	}
	if p.Multiplier < 0 {
		return fmt.Errorf("collective: negative retry multiplier")
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		return fmt.Errorf("collective: retry jitter must be in [0,1]")
	}
	return nil
}

// backoff returns the pause before retry number k (0-based), jittered by the
// op-specific stream rng.
func (p RetryPolicy) backoff(k int, rng *jitterRNG) time.Duration {
	d := float64(p.BaseDelay)
	m := p.Multiplier
	if m <= 0 {
		m = 1
	}
	for i := 0; i < k; i++ {
		d *= m
		if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d *= 1 - p.Jitter + float64(2*p.Jitter*rng.float64())
	}
	return time.Duration(d)
}

// jitterRNG is a tiny deterministic SplitMix64 stream for backoff jitter.
type jitterRNG struct{ state uint64 }

func newJitterRNG(seed int64, opID uint32) *jitterRNG {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(opID)*0xBF58476D1CE4E5B9 + 0xD1B54A32D192ED03
	return &jitterRNG{state: z}
}

func (r *jitterRNG) float64() float64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return float64((z^(z>>31))>>11) / (1 << 53)
}

// Options tune a collective call. The zero value selects the defaults.
type Options struct {
	// SegmentElems is the pipeline segment size in elements: 0 selects the
	// transport's FrameElems, negative is an error. A size no smaller than
	// the tensor moves one segment per ring step.
	SegmentElems int
	// Stats, when non-nil, accumulates the operation's data-plane counters.
	Stats *OpStats
	// Timeout bounds every receive in the operation: one that exceeds it
	// fails with transport.ErrTimeout instead of parking forever. 0 means
	// unbounded.
	Timeout time.Duration
	// Retry governs what a ring collective does after a timeout: purge the
	// failed attempt's frames, back off, and retry under a fresh tag epoch.
	// The zero value disables retry (a timeout fails the op immediately); a
	// budget above one attempt keeps small inputs off the one-frame exchange.
	Retry RetryPolicy
	// Tracer, when non-nil, records the collective's timeline: the whole
	// operation as a KCollective span, the two ring phases as
	// KReduceScatter/KAllGather sub-spans, retry backoff pauses as
	// KRetryBackoff spans, and KRetry/KTimeout/KAbort instants for the
	// robustness events. A nil tracer costs one nil check per site and
	// allocates nothing (the data plane's allocgate keeps holding).
	Tracer *trace.Tracer
	// TraceTrack is the track trace events are recorded on (the caller's
	// worker rank) and TraceIter their iteration context (-1 when unknown).
	TraceTrack int32
	TraceIter  int32
}

// segElems resolves the segment size of a ring collective over t: an
// explicit SegmentElems wins, otherwise the transport's frame size.
func (o Options) segElems(t transport.Transport) (int, error) {
	switch {
	case o.SegmentElems < 0:
		return 0, fmt.Errorf("collective: negative SegmentElems %d", o.SegmentElems)
	case o.SegmentElems == 0:
		return t.FrameElems(), nil
	default:
		return o.SegmentElems, nil
	}
}

// position returns the caller's index within group, or an error if absent.
// Every member must pass the identical group slice (same order).
func position(t transport.Transport, group []int) (int, error) {
	for i, r := range group {
		if r == t.Rank() {
			return i, nil
		}
	}
	return 0, fmt.Errorf("collective: rank %d not in group %v", t.Rank(), group)
}

// chunk returns the [lo, hi) bounds of chunk c when n elements are split
// into g near-equal chunks.
func chunk(n, g, c int) (lo, hi int) {
	base := n / g
	rem := n % g
	lo = c*base + min(c, rem)
	size := base
	if c < rem {
		size++
	}
	return lo, lo + size
}

// segCount returns the number of segments of seg > 0 elements covering n
// elements (an empty chunk has zero segments).
func segCount(n, seg int) int {
	if n <= 0 {
		return 0
	}
	return (n + seg - 1) / seg
}

// ring is the per-call state of one ReduceInto, ring or exchange: neighbors,
// the agreed segment geometry, the operands of the fused reduce, the pooled
// buffers of the reduce phase, and the stats sink.
type ring struct {
	t          transport.Transport
	opID       uint32
	epoch      int           // retry epoch folded into every tag
	deadline   time.Duration // per-receive bound (0: unbounded)
	next, prev int
	seg        int // segment size in elements, > 0
	segsPer    int // tag stride: max segments of any ring step
	dst, src   []float64
	weight     float64   // the caller's coefficient on src
	in         []float64 // pooled: the segment a reduce step receives (exchange: all g inputs)
	out        []float64 // pooled: the weight-scaled segment leaving at step 0 (nil when weight == 1)
	stats      *OpStats
}

// newRing computes the segment geometry every member agrees on (it depends
// only on n, g, and the segment size seg > 0, which all members share). The
// segment size grows as needed so the virtual step never overflows its
// 16 tag bits.
func newRing(t transport.Transport, group []int, pos int, opID uint32, n, seg int, stats *OpStats) ring {
	g := len(group)
	maxChunk := n/g + 1
	segsPer := segCount(maxChunk, seg)
	for g*segsPer >= maxVirtualStep {
		// Enormous tensor and tiny segments: coarsen deterministically.
		seg *= 2
		segsPer = segCount(maxChunk, seg)
	}
	return ring{
		t:    t,
		opID: opID,
		next: group[(pos+1)%g],
		prev: group[(pos-1+g)%g],
		seg:  seg, segsPer: segsPer,
		stats: stats,
	}
}

// step runs one pipelined ring step of the given phase: the send chunk
// [sendLo, sendHi) streams to next in segments while the recv chunk
// [recvLo, recvHi) streams in from prev, one segment ahead on the wire.
//
// Reduce-scatter forms the weighted sum in one pass per element: the chunk
// leaving at step 0 is weight·src, scaled on its way out, and every received
// segment lands as dst = (weight·src + received)·post — post is 1 except on
// the last reduce-scatter step. A rank receives each chunk exactly once in
// this phase, so src is read, never written. Later steps and all-gather send
// from dst, and all-gather receives into dst in place.
func (r *ring) step(phase, s int, sendLo, sendHi, recvLo, recvHi int, post float64) error {
	segLen := func(lo, hi, k int) (int, int) {
		a := lo + k*r.seg
		return a, min(a+r.seg, hi)
	}
	sm := segCount(sendHi-sendLo, r.seg)
	rm := segCount(recvHi-recvLo, r.seg)
	base := s * r.segsPer
	reduce := phase == phaseReduceScatter

	ph := epochPhase(r.epoch, phase)
	sent := 0
	send := func() error {
		lo, hi := segLen(sendLo, sendHi, sent)
		payload := r.dst[lo:hi]
		if reduce && s == 0 {
			payload = r.src[lo:hi]
			if r.weight != 1 {
				payload = r.out[:hi-lo]
				tensor.ScaleInto(payload, r.src[lo:hi], r.weight)
			}
		}
		if err := r.t.Send(r.next, tag(r.opID, ph, base+sent), payload); err != nil {
			return err
		}
		if r.stats != nil {
			r.stats.BytesSent += int64(8 * (hi - lo))
			r.stats.Segments++
		}
		sent++
		return nil
	}
	if sm > 0 {
		if err := send(); err != nil { // prime the pipeline
			return err
		}
	}
	for k := 0; k < rm || sent < sm; k++ {
		if sent < sm {
			if err := send(); err != nil { // segment k+1 rides the wire…
				return err
			}
		}
		if k >= rm {
			continue
		}
		lo, hi := segLen(recvLo, recvHi, k) // …while segment k lands here
		want := hi - lo
		into := r.dst[lo:hi]
		if reduce {
			into = r.in[:want]
		}
		n, err := r.t.RecvIntoTimeout(r.prev, tag(r.opID, ph, base+k), into, r.deadline)
		if err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("collective: chunk size mismatch %d != %d", want, n)
		}
		if r.stats != nil {
			r.stats.BytesRecv += int64(8 * want)
		}
		if reduce {
			tensor.ScaleAddInto(r.dst[lo:hi], r.src[lo:hi], into, r.weight, post)
		}
	}
	return nil
}

// ReduceInto is the all-reduce: it leaves post · Σ_i weight_i·src_i —
// each member's own weight times its own src, summed over group — in every
// member's dst. All members must call it with the same group, opID, vector
// length, post, segment size (the default, the transport's FrameElems, is
// the same at every endpoint of a world built with one set of options) and
// attempt budget. A group of one computes post·(weight·src) locally. The
// folded weighting and post-scale (see ring.step) round exactly as separate
// Scale passes would, and the result is bit-identical for every
// segment size: segmentation, and the one-frame exchange selected for
// small inputs when there is no retry budget (see exchange), only change
// message boundaries, never the per-element order of operations.
//
// dst is either src itself (in place) or a buffer that does not overlap it.
// Out of place, src is never written: an operation that fails — peer down,
// aborted, timed out — leaves its input exactly as it was.
//
// With Options.Timeout set, every receive is deadline-bounded; with a
// non-zero Options.Retry, a timed-out attempt is abandoned (its buffered
// frames purged) and the operation retried from src under a fresh tag epoch
// after a seeded-jitter exponential backoff; only an in-place caller, whose
// failed attempt overwrote part of its input, pays for a pooled snapshot to
// restore it from. Non-timeout failures (peer down, op aborted) are never
// retried — they have their own recovery path in the runtime. When the
// attempt budget is exhausted the op is aborted locally so straggler frames
// are dropped on arrival, and the last timeout error is returned.
func ReduceInto(t transport.Transport, group []int, opID uint32, dst, src []float64, weight, post float64, opt Options) error {
	seg, err := opt.segElems(t)
	if err != nil {
		return err
	}
	n := len(src)
	if len(dst) != n {
		return fmt.Errorf("collective: ReduceInto dst length %d != src length %d", len(dst), n)
	}
	g := len(group)
	if g <= 1 {
		tensor.ScaleInto(dst, src, weight)
		if post != 1 {
			tensor.Vector(dst).Scale(post)
		}
		return nil
	}
	pos, err := position(t, group)
	if err != nil {
		return err
	}
	stats := opt.Stats
	attempts := opt.Retry.attempts()
	if opt.Timeout <= 0 {
		attempts = 1 // without deadlines there is nothing to retry from
	}

	// One hop when everything a member sends — its whole input to each peer —
	// fits a quarter segment; above that the ring's pipelined 1/g chunks win
	// (docs/perf-log.md, "one-frame exchange": the crossover sits near half a
	// segment over loopback TCP, near a quarter in memory). Only without a
	// retry budget: a member whose peers all completed on the first attempt
	// would retry alone, with nobody left to resend to it.
	exchange := attempts == 1 && 4*(g-1)*n <= seg
	r := newRing(t, group, pos, opID, n, seg, stats)
	r.deadline = opt.Timeout
	r.dst, r.src, r.weight = dst, src, weight
	if exchange {
		r.in = bufpool.GetFloat64(g * n)
	} else {
		r.in = bufpool.GetFloat64(min(r.seg, n/g+1))
		if weight != 1 {
			r.out = bufpool.GetFloat64(len(r.in))
			defer bufpool.PutFloat64(r.out)
		}
	}
	defer bufpool.PutFloat64(r.in)

	var snapshot []float64 // of an in-place input, for retries to restore
	var rng *jitterRNG
	if attempts > 1 {
		rng = newJitterRNG(opt.Retry.Seed, opID)
		if n > 0 && &dst[0] == &src[0] {
			snapshot = bufpool.GetFloat64(n)
			copy(snapshot, src)
			defer bufpool.PutFloat64(snapshot)
		}
	}

	opStart := opt.Tracer.Now()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			// Discard the failed attempt: restore an in-place input, drop
			// the attempt's buffered frames, and pace the retry.
			copy(src, snapshot)
			t.PurgeOp(opID)
			if d := opt.Retry.backoff(a-1, rng); d > 0 {
				pause := opt.Tracer.Now()
				time.Sleep(d)
				opt.Tracer.Span(trace.KRetryBackoff, opt.TraceTrack, opt.TraceIter, pause, int64(opID), int64(a))
			}
			if stats != nil {
				stats.Retries++
			}
			opt.Tracer.Instant(trace.KRetry, opt.TraceTrack, opt.TraceIter, int64(opID), int64(a))
		}
		r.epoch = a
		var err error
		if exchange {
			err = r.exchange(group, pos, post, opt)
		} else {
			err = r.attempt(g, pos, post, opt)
		}
		if err == nil {
			if a > 0 {
				// Stale frames from failed epochs may still trickle in;
				// marking the op aborted makes the mailbox drop them on
				// arrival instead of parking them forever. The op is
				// complete, so no future receive of it can be poisoned.
				t.AbortOp(opID)
			}
			if stats != nil {
				stats.Ops++
			}
			opt.Tracer.Span(trace.KCollective, opt.TraceTrack, opt.TraceIter, opStart, int64(opID), int64(g))
			return nil
		}
		if !transport.IsTimeout(err) {
			return err
		}
		if stats != nil {
			stats.Timeouts++
		}
		opt.Tracer.Instant(trace.KTimeout, opt.TraceTrack, opt.TraceIter, int64(opID), int64(a))
		lastErr = err
	}
	// Retry budget exhausted: abort locally so frames of any epoch are
	// flushed and future stragglers dropped, then surface the timeout.
	t.AbortOp(opID)
	if stats != nil {
		stats.Aborts++
	}
	opt.Tracer.Instant(trace.KAbort, opt.TraceTrack, opt.TraceIter, int64(opID), 0)
	return lastErr
}

// attempt runs one reduce-scatter + all-gather pass under the ring's current
// retry epoch.
func (r *ring) attempt(g, pos int, post float64, opt Options) error {
	n := len(r.src)

	// Reduce-scatter: after g−1 steps, chunk (pos+1) mod g is fully reduced
	// (and post-scaled) here.
	start := time.Now()
	trStart := opt.Tracer.Now()
	for s := 0; s < g-1; s++ {
		sendChunk := ((pos-s)%g + g) % g
		recvChunk := ((pos-s-1)%g + g) % g
		sendLo, sendHi := chunk(n, g, sendChunk)
		recvLo, recvHi := chunk(n, g, recvChunk)
		stepPost := 1.0
		if s == g-2 {
			stepPost = post
		}
		if err := r.step(phaseReduceScatter, s, sendLo, sendHi, recvLo, recvHi, stepPost); err != nil {
			return err
		}
	}
	mid := time.Now()
	if r.stats != nil {
		r.stats.ReduceScatter += mid.Sub(start)
	}
	opt.Tracer.Span(trace.KReduceScatter, opt.TraceTrack, opt.TraceIter, trStart, int64(r.opID), 0)

	// All-gather: circulate the reduced chunks.
	trMid := opt.Tracer.Now()
	for s := 0; s < g-1; s++ {
		sendChunk := ((pos+1-s)%g + g) % g
		recvChunk := ((pos-s)%g + g) % g
		sendLo, sendHi := chunk(n, g, sendChunk)
		recvLo, recvHi := chunk(n, g, recvChunk)
		if err := r.step(phaseAllGather, s, sendLo, sendHi, recvLo, recvHi, 1); err != nil {
			return err
		}
	}
	if r.stats != nil {
		r.stats.AllGather += time.Since(mid)
	}
	opt.Tracer.Span(trace.KAllGather, opt.TraceTrack, opt.TraceIter, trMid, int64(r.opID), 0)
	return nil
}

// exchange is the one-hop alternative to attempt for inputs so small that
// each ring step would move a fraction of a frame: every member sends
// weight·src whole to the other g−1 and receives theirs into r.in, one slot
// per group position, then forms chunk c as the ring does — position c, plus
// c+1, …, c+g−1 in turn, post on the last add — so the bits are the ring's.
// dst is written only after every receive has succeeded.
func (r *ring) exchange(group []int, pos int, post float64, opt Options) error {
	g, n := len(group), len(r.src)
	start := time.Now()
	trStart := opt.Tracer.Now()
	tg := tag(r.opID, phaseExchange, 0) // epoch 0: the exchange never retries
	slot := func(q int) []float64 { return r.in[q*n : (q+1)*n] }
	tensor.ScaleInto(slot(pos), r.src, r.weight)
	for k := 1; k < g; k++ {
		if err := r.t.Send(group[(pos+k)%g], tg, slot(pos)); err != nil {
			return err
		}
		if r.stats != nil {
			r.stats.BytesSent += int64(8 * n)
			r.stats.Segments++
		}
	}
	for k := 1; k < g; k++ {
		q := (pos - k + g) % g
		got, err := r.t.RecvIntoTimeout(group[q], tg, slot(q), r.deadline)
		if err != nil {
			return err
		}
		if got != n {
			return fmt.Errorf("collective: exchange size mismatch %d != %d", n, got)
		}
		if r.stats != nil {
			r.stats.BytesRecv += int64(8 * n)
		}
	}
	mid := time.Now()
	if r.stats != nil {
		r.stats.AllGather += mid.Sub(start)
	}
	opt.Tracer.Span(trace.KAllGather, opt.TraceTrack, opt.TraceIter, trStart, int64(r.opID), 0)

	trMid := opt.Tracer.Now()
	for c := 0; c < g; c++ {
		lo, hi := chunk(n, g, c)
		acc := slot(c)[lo:hi]
		for k := 1; k < g; k++ {
			p := 1.0
			if k == g-1 {
				p = post
			}
			tensor.ScaleAddInto(r.dst[lo:hi], slot((c + k) % g)[lo:hi], acc, 1, p)
			acc = r.dst[lo:hi]
		}
	}
	if r.stats != nil {
		r.stats.ReduceScatter += time.Since(mid)
	}
	opt.Tracer.Span(trace.KReduceScatter, opt.TraceTrack, opt.TraceIter, trMid, int64(r.opID), 0)
	return nil
}

// AllReduceSumOpts sums data element-wise across the members of group,
// leaving the total in every member's data slice: ReduceInto in place with
// unit weight.
func AllReduceSumOpts(t transport.Transport, group []int, opID uint32, data []float64, opt Options) error {
	return ReduceInto(t, group, opID, data, data, 1, 1, opt)
}

// AllReduceMeanOpts averages data element-wise across the group, in place.
func AllReduceMeanOpts(t transport.Transport, group []int, opID uint32, data []float64, opt Options) error {
	return ReduceInto(t, group, opID, data, data, 1, 1/float64(len(group)), opt)
}

// WeightedAverageOpts computes the weighted sum Σ_i weights[i]·data_i across
// the group, leaving the result in every member's data. weight is the
// caller's own coefficient — the P-Reduce aggregation (Alg. 2 line 7) with
// the controller's constant or dynamic weights.
func WeightedAverageOpts(t transport.Transport, group []int, opID uint32, data []float64, weight float64, opt Options) error {
	return ReduceInto(t, group, opID, data, data, weight, 1, opt)
}
