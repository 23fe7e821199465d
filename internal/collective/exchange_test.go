package collective

import (
	"errors"
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

// checkExchangeFrames fails unless the member at group position pos of a
// g-member exchange of n elements sent one frame of n elements to each peer
// it talks to — the root (position 0) g−1, every other member 1 — and
// received as many bytes as it sent.
func checkExchangeFrames(t *testing.T, name string, g, n, pos int, s OpStats) {
	t.Helper()
	frames := int64(1)
	if pos == 0 {
		frames = int64(g - 1)
	}
	if s.Segments != frames || s.BytesSent != frames*int64(8*n) || s.BytesRecv != s.BytesSent {
		t.Fatalf("%s rank %d: %d frames, %d bytes sent, %d received; want %d frames of %d elements each way",
			name, pos, s.Segments, s.BytesSent, s.BytesRecv, frames, n)
	}
}

// TestExchangeMatchesRing is the exchange's determinism property. For every
// group size 2…8 and every length on both sides of the rule — 0, 1, g−1, g,
// the largest n whose 2(g−1)·n fits one default Mem frame, and one past it —
// with unit and mixed weights, post 1 and 1/g, in place and out of place, on
// inputs with NaN, ±0, ±Inf and subnormals: the default geometry (the
// exchange up to the threshold) equals the serial reference and the ring at
// 1-element segments bit for bit, the threshold is where the frame count
// says the algorithm changes (the exchange's root sends g−1 frames and every
// other member 1, each of n elements; the ring's members send 2(g−1) or
// more, of at most n/g + 1), and an out-of-place src is never written.
func TestExchangeMatchesRing(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	op := uint32(0)
	for g := 2; g <= 8; g++ {
		world := asWorld(transport.NewMem(g))
		thr := DefaultSegmentElems / (2 * (g - 1))
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
							stats, errs := reduceWorld(segmented(world, seg), op, dst, src, weights, post, Options{})
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
						for r := range got {
							if i := diffBits(got[r], want); i >= 0 {
								t.Fatalf("%s rank %d elem %d: %x, serial %x", name, r, i, got[r][i], want[i])
							}
							if i := diffBits(got[r], ring[r]); i >= 0 {
								t.Fatalf("%s rank %d elem %d: %x, 1-element ring %x", name, r, i, got[r][i], ring[r][i])
							}
							if n <= thr {
								checkExchangeFrames(t, name, g, n, r, stats[r])
							} else if stats[r].Segments < int64(2*(g-1)) {
								t.Fatalf("%s rank %d: %d segments, the ring expected", name, r, stats[r].Segments)
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
// sends as empty frames: the root sends g−1, every other member 1.
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
				checkExchangeFrames(t, fmt.Sprintf("g=%d n=%d", g, n), g, n, r, stats[r])
				if i := diffBits(dst[r], want); i >= 0 {
					t.Fatalf("g=%d n=%d rank %d elem %d: %x != %x", g, n, r, i, dst[r][i], want[i])
				}
			}
		}
	}
}

// TestExchangeAbortsAfterBudget is TestAllReduceAbortsAfterBudget's sever
// with a budget of one attempt, which keeps 32 elements on the exchange, out
// of place: rank 1's only inbound link is cut, so it times out waiting for the
// root's broadcast and counts one abort, with its src and dst exactly as they
// were. Rank 0, the root, got rank 1's input, so it completes with the exact
// sum — the partial completion the ring's last all-gather step can also
// produce.
func TestExchangeAbortsAfterBudget(t *testing.T) {
	const g, d = 2, 32
	eps := faultyGroup(t, g, transport.FaultPlan{
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
		t.Fatalf("rank 0 stats %+v, want one clean exchange", s)
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

// TestExchangeRelayedFailure: in an 8-member exchange every input reaches
// the other members through the root, so one member's death must fail
// members that never talk to it, and the root's must fail them all. Out of
// place, on inputs with specials, every member returns a failure within 2
// receive deadlines (plus 2 s of scheduling slack), no src changed and no
// member wrote dst:
//   - a non-root member, rank 3, crashes at its first send, before its input
//     leaves. The root sees it down and never broadcasts; the other members
//     wait on the root alone, and time out.
//   - the root crashes while it still waits on rank 7's input, lost on a cut
//     link, so before its sum. The members waiting on it fail.
func TestExchangeRelayedFailure(t *testing.T) {
	const g, n, timeout = 8, 108, 100 * time.Millisecond
	for _, c := range []struct {
		name     string
		plan     transport.FaultPlan
		kill     int   // rank killed a quarter deadline in (-1: none)
		timedOut []int // ranks that must fail by their deadline
	}{
		{"non-root", transport.FaultPlan{CrashAfterSends: map[int]int{3: 0}}, -1, []int{1, 2, 4, 5, 6, 7}},
		{"root", transport.FaultPlan{LinkFaults: map[[2]int]transport.LinkFault{{7, 0}: {Sever: true}}}, 0, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			eps := faultyGroup(t, g, c.plan)
			xs := specialInputs(rand.New(rand.NewSource(42)), g, n)
			weights := make([]float64, g)
			for r := range weights {
				weights[r] = 1 / float64(g)
			}
			src, dst := cloneAll(xs), nanVectors(g, n)
			if c.kill >= 0 {
				time.AfterFunc(timeout/4, func() { eps[c.kill].Kill(c.kill) })
			}
			begin := time.Now()
			_, errs := reduceWorld(asWorld(eps), 5, dst, src, weights, 1, Options{Timeout: timeout})
			if took, bound := time.Since(begin), 2*timeout+2*time.Second; took > bound {
				t.Fatalf("exchange took %v to fail, bound %v", took, bound)
			}
			for _, r := range c.timedOut {
				if !transport.IsTimeout(errs[r]) {
					t.Fatalf("rank %d (relayed): want a timeout, got %v", r, errs[r])
				}
			}
			for r, err := range errs {
				if !transport.IsFailure(err) {
					t.Fatalf("rank %d: want a peer-down or timeout failure, got %v", r, err)
				}
				if i := diffBits(src[r], xs[r]); i >= 0 {
					t.Fatalf("rank %d: failed exchange wrote src[%d]", r, i)
				}
				for i, v := range dst[r] {
					if !math.IsNaN(v) {
						t.Fatalf("rank %d: failed exchange wrote dst[%d] = %v", r, i, v)
					}
				}
			}
		})
	}
}

// TestExchangeRootCutPartWay is the exchange's partial completion: the root
// crashes at its third broadcast frame, so the members at positions 1 and 2
// complete with the serial reference's bits and the rest see it down, with
// dst untouched.
func TestExchangeRootCutPartWay(t *testing.T) {
	const g, n = 8, 108
	eps := faultyGroup(t, g, transport.FaultPlan{CrashAfterSends: map[int]int{0: 2}})
	xs := specialInputs(rand.New(rand.NewSource(44)), g, n)
	weights := make([]float64, g)
	for r := range weights {
		weights[r] = 1 / float64(g)
	}
	want := serialReduce(xs, weights, 1)
	dst := nanVectors(g, n)
	_, errs := reduceWorld(asWorld(eps), 6, dst, cloneAll(xs), weights, 1, Options{Timeout: time.Second})
	for r := 1; r < g; r++ {
		if r <= 2 {
			if errs[r] != nil {
				t.Fatalf("rank %d (reached): %v", r, errs[r])
			}
			if i := diffBits(dst[r], want); i >= 0 {
				t.Fatalf("rank %d elem %d: %x != %x", r, i, dst[r][i], want[i])
			}
			continue
		}
		if down := (*transport.PeerDownError)(nil); !errors.As(errs[r], &down) || down.Peer != 0 {
			t.Fatalf("rank %d (not reached): want the root down, got %v", r, errs[r])
		}
		for i, v := range dst[r] {
			if !math.IsNaN(v) {
				t.Fatalf("rank %d: failed exchange wrote dst[%d] = %v", r, i, v)
			}
		}
	}
	if down := (*transport.PeerDownError)(nil); !errors.As(errs[0], &down) || down.Peer != 0 {
		t.Fatalf("root: want its own crash, got %v", errs[0])
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
// place — over Mem and over loopback TCP, at g = 3 (ctrl_tcp's P-Reduce
// groups), 4 and 8. Rank 0 is the root and the peers run the non-root path,
// so both are gated.
func TestExchangeSteadyStateAllocFree(t *testing.T) {
	const n = 108
	for _, g := range []int{3, 4, 8} {
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
