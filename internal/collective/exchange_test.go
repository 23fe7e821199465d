package collective

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"partialreduce/internal/transport"
)

// specialInputs draws g vectors of n elements that mix ordinary values with
// NaN, ±0, ±Inf and subnormals.
func specialInputs(rng *rand.Rand, g, n int) [][]float64 {
	specials := []float64{
		math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1040,
	}
	xs := make([][]float64, g)
	for r := range xs {
		xs[r] = make([]float64, n)
		for i := range xs[r] {
			if rng.Intn(16) == 0 {
				xs[r][i] = specials[rng.Intn(len(specials))]
			} else {
				xs[r][i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
			}
		}
	}
	return xs
}

// TestExchangeMatchesRing is the exchange's determinism property. For every
// group size 2…8 and every length on both sides of the rule — 0, 1, g−1, g,
// the largest n whose 4(g−1)·n fits one default Mem frame, and one past it —
// with unit and mixed weights, post 1 and 1/g, in place and out of place, on
// inputs with NaN, ±0, ±Inf and subnormals: the default geometry (one-frame
// exchange up to the threshold) equals the serial reference and the ring at
// 1-element segments bit for bit, the threshold is where the segment count
// says the algorithm changes, and an out-of-place src is never written.
func TestExchangeMatchesRing(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	op := uint32(0)
	for g := 2; g <= 8; g++ {
		world := asWorld(transport.NewMem(g))
		thr := DefaultSegmentElems / (4 * (g - 1))
		for _, n := range []int{0, 1, g - 1, g, thr, thr + 1} {
			for _, unit := range []bool{true, false} {
				weights := make([]float64, g)
				for r := range weights {
					weights[r] = 1
					if !unit {
						weights[r] = []float64{1, 1 / float64(g), -0.5, rng.NormFloat64()}[rng.Intn(4)]
					}
				}
				for _, post := range []float64{1, 1 / float64(g)} {
					xs := specialInputs(rng, g, n)
					want := serialReduce(xs, weights, post)
					for _, inPlace := range []bool{true, false} {
						name := fmt.Sprintf("g=%d n=%d unit=%v post=%g in-place=%v", g, n, unit, post, inPlace)
						run := func(seg int) ([][]float64, []OpStats) {
							src := cloneAll(xs)
							dst := src
							if !inPlace {
								dst = nanVectors(g, n)
							}
							op++
							stats, errs := reduceWorld(world, op, dst, src, weights, post, Options{SegmentElems: seg})
							for r, err := range errs {
								if err != nil {
									t.Fatalf("%s seg=%d rank %d: %v", name, seg, r, err)
								}
								if i := diffBits(src[r], xs[r]); !inPlace && i >= 0 {
									t.Fatalf("%s seg=%d rank %d: out-of-place reduce wrote src[%d]", name, seg, r, i)
								}
							}
							return dst, stats
						}
						got, stats := run(0)
						ring, _ := run(1)
						exchange := n <= thr
						for r := range got {
							if i := diffBits(got[r], want); i >= 0 {
								t.Fatalf("%s rank %d elem %d: %x, serial %x", name, r, i, got[r][i], want[i])
							}
							if i := diffBits(got[r], ring[r]); i >= 0 {
								t.Fatalf("%s rank %d elem %d: %x, 1-element ring %x", name, r, i, got[r][i], ring[r][i])
							}
							if took := stats[r].Segments == int64(g-1); took != exchange {
								t.Fatalf("%s rank %d: %d segments, exchange expected %v", name, r, stats[r].Segments, exchange)
							}
						}
					}
				}
			}
		}
	}
}

// TestExchangeOverTCP: the same property on loopback TCP meshes at the
// ctrl_tcp model's size and with empty vectors, which the exchange still
// sends as empty frames.
func TestExchangeOverTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, g := range []int{3, 8} {
		world := tcpWorld(t, g, transport.TCPOptions{})
		for i, n := range []int{0, 108} {
			xs := specialInputs(rng, g, n)
			weights := make([]float64, g)
			for r := range weights {
				weights[r] = 1 / float64(g)
			}
			want := serialReduce(xs, weights, 1)
			dst := nanVectors(g, n)
			stats, errs := reduceWorld(world, uint32(i+1), dst, cloneAll(xs), weights, 1, Options{})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("g=%d n=%d rank %d: %v", g, n, r, err)
				}
				if stats[r].Segments != int64(g-1) || stats[r].BytesSent != int64(8*n*(g-1)) {
					t.Fatalf("g=%d n=%d rank %d: %d frames, %d bytes sent; want one whole vector to each peer",
						g, n, r, stats[r].Segments, stats[r].BytesSent)
				}
				if i := diffBits(dst[r], want); i >= 0 {
					t.Fatalf("g=%d n=%d rank %d elem %d: %x != %x", g, n, r, i, dst[r][i], want[i])
				}
			}
		}
	}
}

// TestExchangeAbortsAfterBudget is TestAllReduceAbortsAfterBudget's sever
// with a budget of one attempt, which keeps 32 elements on the exchange, out
// of place: rank 1's only inbound link is cut, so it times out and counts one
// abort, with its src and dst exactly as they were. Rank 0's inbound link is
// intact, so it completes with the exact sum — the partial completion the
// ring's last all-gather step can also produce.
func TestExchangeAbortsAfterBudget(t *testing.T) {
	const g, d = 2, 32
	eps := faultyGroup(t, g, transport.FaultPlan{
		Seed:       12,
		LinkFaults: map[[2]int]transport.LinkFault{{0, 1}: {Sever: true}},
	})
	xs := make([][]float64, g)
	for r := range xs {
		xs[r] = make([]float64, d)
		for i := range xs[r] {
			xs[r][i] = float64(r*100+i) + 0.25
		}
	}
	want := serialReduce(xs, []float64{1, 1}, 1)
	src, dst := cloneAll(xs), nanVectors(g, d)
	stats, errs := reduceWorld(asWorld(eps), 2, dst, src, []float64{1, 1}, 1, Options{Timeout: 50 * time.Millisecond})
	if errs[0] != nil {
		t.Fatalf("rank 0 (inbound intact): %v", errs[0])
	}
	if i := diffBits(dst[0], want); i >= 0 {
		t.Fatalf("rank 0 elem %d: %x != %x", i, dst[0][i], want[i])
	}
	if s := stats[0]; s.Ops != 1 || s.Segments != 1 || s.Timeouts != 0 || s.Aborts != 0 {
		t.Fatalf("rank 0 stats %+v, want one clean one-frame exchange", s)
	}
	if !transport.IsTimeout(errs[1]) {
		t.Fatalf("rank 1 (inbound severed): want timeout, got %v", errs[1])
	}
	if s := stats[1]; s.Aborts != 1 || s.Timeouts != 1 || s.Retries != 0 {
		t.Fatalf("rank 1 stats %+v, want 1 timeout, no retry, 1 abort", s)
	}
	if i := diffBits(src[1], xs[1]); i >= 0 {
		t.Fatalf("rank 1: aborted exchange wrote src[%d]", i)
	}
	for i, v := range dst[1] {
		if !math.IsNaN(v) {
			t.Fatalf("rank 1: aborted exchange wrote dst[%d] = %v", i, v)
		}
	}
}

// TestSmallReduceRetriesDroppedFrame: one frame of a small 3-member
// reduction is lost (the first 0 → 1). A retry budget keeps the operation on
// the ring, where the loss stalls every member, so all three retry together
// and complete with the serial reference's bits, out of place with src
// untouched and in place alike. On the exchange the members whose inbound
// frames arrived would finish on the first attempt, and rank 1 would retry
// alone with nobody left to resend to it.
func TestSmallReduceRetriesDroppedFrame(t *testing.T) {
	const g, d = 3, 50
	weights := []float64{0.5, 0.25, 0.25}
	xs := specialInputs(rand.New(rand.NewSource(38)), g, d)
	want := serialReduce(xs, weights, 1)
	for _, inPlace := range []bool{false, true} {
		eps := faultyGroup(t, g, transport.FaultPlan{
			Seed:       23,
			LinkFaults: map[[2]int]transport.LinkFault{{0, 1}: {DropFirst: 1}},
		})
		src := cloneAll(xs)
		dst := src
		if !inPlace {
			dst = nanVectors(g, d)
		}
		stats, errs := reduceWorld(asWorld(eps), 4, dst, src, weights, 1, Options{
			Timeout: 50 * time.Millisecond,
			Retry:   RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, Seed: 23},
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("in-place=%v rank %d: %v", inPlace, r, err)
			}
		}
		for r := range errs {
			if stats[r].Retries == 0 || stats[r].Aborts != 0 {
				t.Fatalf("in-place=%v rank %d stats %+v, want a retry and no abort", inPlace, r, stats[r])
			}
			if i := diffBits(dst[r], want); i >= 0 {
				t.Fatalf("in-place=%v rank %d elem %d: %x != %x", inPlace, r, i, dst[r][i], want[i])
			}
			if i := diffBits(src[r], xs[r]); !inPlace && i >= 0 {
				t.Fatalf("rank %d: out-of-place retry wrote src[%d]", r, i)
			}
		}
	}
}

// TestExchangeSteadyStateAllocFree gates the exchange at the ctrl_tcp model's
// size (108 elements) in both shapes the live runtime calls — the P-Reduce
// average out of place with weight 1/g and the All-Reduce gradient mean in
// place — over Mem and over loopback TCP, at g = 4 and 8.
func TestExchangeSteadyStateAllocFree(t *testing.T) {
	const n = 108
	for _, g := range []int{4, 8} {
		for _, wire := range []string{"mem", "tcp"} {
			t.Run(fmt.Sprintf("%s/g=%d", wire, g), func(t *testing.T) {
				world := asWorld(transport.NewMem(g))
				if wire == "tcp" {
					world = tcpWorld(t, g, transport.TCPOptions{})
				}
				dsts, srcs := make([][]float64, g), make([][]float64, g)
				for r := range dsts {
					dsts[r], srcs[r] = make([]float64, n), make([]float64, n)
				}
				assertRingAllocFree(t, world, func(tr transport.Transport, group []int, r int) error {
					if err := ReduceInto(tr, group, 9, dsts[r], srcs[r], 1/float64(g), 1, Options{}); err != nil {
						return err
					}
					return AllReduceMeanOpts(tr, group, 10, dsts[r], Options{})
				})
			})
		}
	}
}
