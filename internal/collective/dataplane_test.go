package collective

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"partialreduce/internal/transport"
)

// reduceWorld runs ReduceInto concurrently on every rank of world (the group
// is the whole world) and returns each rank's counters and error.
func reduceWorld(world []transport.Transport, opID uint32, dsts, srcs [][]float64, weights []float64, post float64, opt Options) ([]OpStats, []error) {
	g := len(world)
	group := make([]int, g)
	for r := range group {
		group[r] = r
	}
	stats := make([]OpStats, g)
	errs := make([]error, g)
	var wg sync.WaitGroup
	for r := range world {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opt
			o.Stats = &stats[r]
			errs[r] = ReduceInto(world[r], group, opID, dsts[r], srcs[r], weights[r], post, o)
		}()
	}
	wg.Wait()
	return stats, errs
}

// serialReduce is the ring's arithmetic without the ring: element i of chunk
// c is weight_c·x_c, then each next member's weight_r·x_r added in ring order
// r = c+1, c+2, … (mod g), then post-scaled — every step rounded on its own.
func serialReduce(xs [][]float64, weights []float64, post float64) []float64 {
	g, n := len(xs), len(xs[0])
	out := make([]float64, n)
	for c := 0; c < g; c++ {
		lo, hi := chunk(n, g, c)
		for i := lo; i < hi; i++ {
			acc := float64(weights[c] * xs[c][i])
			for k := 1; k < g; k++ {
				r := (c + k) % g
				acc = float64(weights[r]*xs[r][i]) + acc
			}
			out[i] = float64(acc * post)
		}
	}
	return out
}

func cloneAll(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = append([]float64(nil), x...)
	}
	return out
}

// diffBits reports the first element at which got and want differ as bit
// patterns (so +0 ≠ −0), or -1.
func diffBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestQuickSegmentedBitIdentical is the tentpole determinism property. The
// fused ring changes where the weighting, the sum and the post-scale happen,
// never what is computed: for random group sizes (1 included), vector
// lengths (shorter than the group included), per-member weights (unit, zero
// and negative included), data with signed zeros, post ∈ {1, 1/g} and
// segment sizes — including ones that leave ragged final segments and ones
// larger than any chunk — the in-place one-segment-per-step ring, the
// in-place segmented ring and the out-of-place segmented ring all equal the
// serial reference *bit for bit*, and the out-of-place source is unmodified.
func TestQuickSegmentedBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := 1 + rng.Intn(8)
		d := 1 + rng.Intn(5000)
		if rng.Intn(4) == 0 {
			d = rng.Intn(g + 1) // some (or all) chunks are empty
		}
		seg := 1 + rng.Intn(700) // deliberately tiny: many ragged segments
		post := 1.0
		if rng.Intn(2) == 0 {
			post = 1 / float64(g)
		}
		world := asWorld(transport.NewMem(g))
		group := make([]int, g)
		weights := make([]float64, g)
		xs := make([][]float64, g)
		for r := range group {
			group[r] = r
			weights[r] = []float64{1, 1 / float64(g), 0, -0.5, rng.NormFloat64()}[rng.Intn(5)]
			xs[r] = make([]float64, d)
			for i := range xs[r] {
				switch rng.Intn(8) {
				case 0:
					xs[r][i] = 0
				case 1:
					xs[r][i] = math.Copysign(0, -1)
				default:
					xs[r][i] = rng.NormFloat64()
				}
			}
		}
		want := serialReduce(xs, weights, post)

		plain, segged, src := cloneAll(xs), cloneAll(xs), cloneAll(xs)
		out := make([][]float64, g)
		for r := range out {
			out[r] = make([]float64, d)
			for i := range out[r] {
				out[r][i] = math.NaN() // every element must be overwritten
			}
		}
		run := func(opID uint32, dsts, srcs [][]float64, seg int) error {
			_, errs := reduceWorld(segmented(world, seg), opID, dsts, srcs, weights, post, Options{})
			return errors.Join(errs...)
		}
		if err := run(1, plain, plain, max(d, 1)); err != nil {
			t.Logf("one segment per step: %v", err)
			return false
		}
		if err := run(2, segged, segged, seg); err != nil {
			t.Logf("segmented in place (seg=%d): %v", seg, err)
			return false
		}
		if err := run(3, out, src, seg); err != nil {
			t.Logf("segmented out of place (seg=%d): %v", seg, err)
			return false
		}
		for r := range group {
			for name, got := range map[string][]float64{"one-segment": plain[r], "in-place": segged[r], "out-of-place": out[r]} {
				if i := diffBits(got, want); i >= 0 {
					t.Logf("g=%d d=%d seg=%d post=%g rank=%d %s elem=%d: %x != %x",
						g, d, seg, post, r, name, i, got[i], want[i])
					return false
				}
			}
			if i := diffBits(src[r], xs[r]); i >= 0 {
				t.Logf("g=%d d=%d seg=%d rank=%d: out-of-place reduce wrote src[%d]", g, d, seg, r, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAllReduceOpStats pins the OpStats accounting: a g-member ring moves
// 2(g−1)/g·n elements per member in each direction, phases take nonzero
// wall time, and the segment count matches the agreed geometry. The same
// holds for AllReduceApply, whose update is charged to neither phase: the
// phases and the update are disjoint parts of the call, so the phase times
// sum to at most the call's wall time less the update's — on the ring and
// on the exchange. On the exchange ReduceScatter is the gather and the
// root's sum, AllGather the broadcast; a non-root member has no sum, so its
// ReduceScatter is its one send and its AllGather its wait for the result.
// Its frames are the exchange's: g−1 at the root, 1 at every other member.
func TestAllReduceOpStats(t *testing.T) {
	const g, n, seg = 4, 1000, 64
	const applyFor = 5 * time.Millisecond
	world := asWorld(transport.NewMem(g))
	segWorld := segmented(world, seg)
	for _, entry := range []string{"AllReduceSumOpts", "AllReduceApply", "AllReduceApply/exchange"} {
		stats := make([]OpStats, g)
		wall := make([]time.Duration, g)
		applied := make([]time.Duration, g)
		err := eachMember(world, func(r int, group []int) error {
			o := Options{Stats: &stats[r]}
			ep := segWorld[r]
			data := make([]float64, n)
			start := time.Now()
			defer func() { wall[r] = time.Since(start) }()
			if entry == "AllReduceSumOpts" {
				return AllReduceSumOpts(ep, group, 5, data, o)
			}
			if entry == "AllReduceApply/exchange" {
				ep = world[r]
				data = data[:10]
			}
			return AllReduceApply(ep, group, 6, data, make([]float64, len(data)), func(int, int) {
				t0 := time.Now()
				time.Sleep(applyFor)
				applied[r] += time.Since(t0)
			}, o)
		})
		if err != nil {
			t.Fatalf("%s: %v", entry, err)
		}

		var total OpStats
		for r := range stats {
			s := stats[r]
			if s.Ops != 1 {
				t.Fatalf("%s rank %d: ops=%d", entry, r, s.Ops)
			}
			if s.BytesSent != s.BytesRecv {
				t.Fatalf("%s rank %d: sent %d != recv %d (symmetric ring)", entry, r, s.BytesSent, s.BytesRecv)
			}
			if s.ReduceScatter <= 0 || s.AllGather <= 0 {
				t.Fatalf("%s rank %d: zero phase time %v/%v", entry, r, s.ReduceScatter, s.AllGather)
			}
			if phases := s.ReduceScatter + s.AllGather; phases > wall[r]-applied[r] {
				t.Fatalf("%s rank %d: phases %v > wall %v − update %v: the update was charged to a phase",
					entry, r, phases, wall[r], applied[r])
			}
			total.Merge(s)
			if entry == "AllReduceApply/exchange" {
				checkExchangeFrames(t, entry, g, 10, r, s)
				continue
			}
			// Each member ships every chunk except its final one in each phase:
			// 2(g−1) chunks of n/g-ish elements — between 2(g−1)·floor(n/g) and
			// 2(g−1)·ceil(n/g) elements, 8 bytes each.
			lo := int64(8 * 2 * (g - 1) * (n / g))
			hi := int64(8 * 2 * (g - 1) * ((n + g - 1) / g))
			if s.BytesSent < lo || s.BytesSent > hi {
				t.Fatalf("%s rank %d: bytes sent %d outside [%d,%d]", entry, r, s.BytesSent, lo, hi)
			}
			if s.Segments < 2*(g-1) {
				t.Fatalf("%s rank %d: only %d segments for seg=%d", entry, r, s.Segments, seg)
			}
		}
		if total.Ops != g {
			t.Fatalf("%s: merged ops=%d", entry, total.Ops)
		}
		if got := total.String(); got == "" {
			t.Fatal("empty stats string")
		}
	}
}

// assertRingAllocFree is the CI allocation gate: after warmup, op — one full
// segmented ring collective over world, called concurrently on every rank —
// performs zero heap allocations. AllocsPerRun counts the whole process, so
// the peers and any TCP read loops are included.
func assertRingAllocFree(t *testing.T, world []transport.Transport, op func(tr transport.Transport, group []int, rank int) error) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	g := len(world)
	group := make([]int, g)
	for r := range group {
		group[r] = r
	}

	// Peer ranks loop in the background, released once per round.
	start := make([]chan struct{}, g)
	done := make([]chan struct{}, g)
	for r := 1; r < g; r++ {
		start[r] = make(chan struct{})
		done[r] = make(chan struct{})
		r := r
		go func() {
			for range start[r] {
				_ = op(world[r], group, r)
				done[r] <- struct{}{}
			}
		}()
	}
	defer func() {
		for r := 1; r < g; r++ {
			close(start[r])
		}
	}()

	round := func() {
		for r := 1; r < g; r++ {
			start[r] <- struct{}{}
		}
		if err := op(world[0], group, 0); err != nil {
			t.Fatal(err)
		}
		for r := 1; r < g; r++ {
			<-done[r]
		}
	}
	for i := 0; i < 8; i++ {
		round() // warm every pool (buffers, waiters, kernel workers)
	}
	if allocs := testing.AllocsPerRun(20, round); allocs > 0 {
		t.Fatalf("steady-state ring collective allocates %.1f times per op", allocs)
	}
}

// TestAllReduceSteadyStateAllocFree gates the in-place unit-weight ring: 4
// ranks at the 4 Ki in-process frame, and the live All-Reduce's step, an
// 8-rank AllReduceApply with a real SGD range update at the world ring's
// default geometry, two 32 Ki segments per ring step, whose 256 KiB pooled
// segment buffers must recycle.
func TestAllReduceSteadyStateAllocFree(t *testing.T) {
	for _, c := range []struct{ g, n int }{{4, 1 << 16}, {8, 8 * 2 * (32 << 10)}} {
		datas, params := make([][]float64, c.g), make([][]float64, c.g)
		for r := range datas {
			datas[r], params[r] = make([]float64, c.n), make([]float64, c.n)
		}
		updates := rangeUpdates(params, datas)
		assertRingAllocFree(t, asWorld(transport.NewMem(c.g)), func(tr transport.Transport, group []int, r int) error {
			if c.g == 8 {
				return AllReduceApply(tr, group, 9, datas[r], params[r], updates[r], Options{})
			}
			return AllReduceSumOpts(tr, group, 9, datas[r], Options{})
		})
	}
}

// TestReduceIntoSteadyStateAllocFree gates the ring the live P-Reduce step
// runs: out of place with a non-unit weight, which adds the pooled scratch
// the step-0 chunk is scaled into.
func TestReduceIntoSteadyStateAllocFree(t *testing.T) {
	const n = 1 << 16
	dsts, srcs := [4][]float64{}, [4][]float64{}
	for r := range dsts {
		dsts[r], srcs[r] = make([]float64, n), make([]float64, n)
	}
	assertRingAllocFree(t, asWorld(transport.NewMem(4)), func(tr transport.Transport, group []int, r int) error {
		return ReduceInto(tr, group, 9, dsts[r], srcs[r], 0.25, 1, Options{})
	})
}

// TestReduceIntoTCPSteadyStateAllocFree is the same ring over a 4-rank
// loopback TCP mesh at the transport's own frame size: two 32 Ki-element
// segments per ring step, so the 256 KiB pooled segment buffers — the
// reduce-phase scratch and every payload the read loops receive into — must
// recycle.
func TestReduceIntoTCPSteadyStateAllocFree(t *testing.T) {
	world := tcpWorld(t, 4, transport.TCPOptions{})
	n := 4 * 2 * world[0].FrameElems()
	dsts, srcs := [4][]float64{}, [4][]float64{}
	for r := range dsts {
		dsts[r], srcs[r] = make([]float64, n), make([]float64, n)
	}
	assertRingAllocFree(t, world, func(tr transport.Transport, group []int, r int) error {
		return ReduceInto(tr, group, 9, dsts[r], srcs[r], 0.25, 1, Options{})
	})
}
