package collective

import (
	"fmt"
	"sync"
	"testing"

	"partialreduce/internal/transport"
)

// benchRing times the in-place unit-weight all-reduce.
func benchRing(b *testing.B, ranks, elems int, opts Options) {
	benchReduce(b, asWorld(transport.NewMem(ranks)), elems, false, 1, opts)
}

// benchReduce drives a world whose non-zero ranks loop ReduceInto forever —
// in place, or from data into a second buffer — while the benchmark
// goroutine drives rank 0. start releases one round on every rank. The
// world is closed at the end.
func benchReduce(b *testing.B, world []transport.Transport, elems int, outOfPlace bool, weight float64, opts Options) {
	b.Helper()
	ranks := len(world)
	group := make([]int, ranks)
	data := make([][]float64, ranks)
	dst := make([][]float64, ranks)
	for i := range group {
		group[i] = i
		data[i] = make([]float64, elems)
		for j := range data[i] {
			data[i][j] = float64(i*elems + j)
		}
		dst[i] = data[i]
		if outOfPlace {
			dst[i] = make([]float64, elems)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	start := make([]chan struct{}, ranks)
	for r := 1; r < ranks; r++ {
		r := r
		start[r] = make(chan struct{}, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := uint32(1); ; op++ {
				select {
				case <-stop:
					return
				case <-start[r]:
				}
				if err := ReduceInto(world[r], group, op, dst[r], data[r], weight, 1, opts); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}

	// Warm the buffer pools so the measured region sees steady state.
	warm := 3
	for w := 0; w < warm; w++ {
		for r := 1; r < ranks; r++ {
			start[r] <- struct{}{}
		}
		if err := ReduceInto(world[0], group, uint32(w+1), dst[0], data[0], weight, 1, opts); err != nil {
			b.Fatal(err)
		}
	}

	b.SetBytes(int64(8 * elems))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 1; r < ranks; r++ {
			start[r] <- struct{}{}
		}
		op := uint32(warm + i + 1)
		if err := ReduceInto(world[0], group, op, dst[0], data[0], weight, 1, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	for _, t := range world {
		t.Close()
	}
}

// BenchmarkAllReduceSum measures the default (segmented, pooled) ring
// all-reduce over the in-process transport: 4 ranks, a 1M-element tensor.
// The acceptance bar for the zero-alloc data plane is 0 allocs/op here in
// steady state.
func BenchmarkAllReduceSum(b *testing.B) {
	benchRing(b, 4, 1_000_000, Options{})
}

// BenchmarkReduceInto is the live P-Reduce group collective: 3 ranks average
// the repository benchmark's 266,244-parameter model out of place with
// weight 1/3 — the shape bench/'s collective.group_reduce_ms times.
func BenchmarkReduceInto(b *testing.B) {
	benchReduce(b, asWorld(transport.NewMem(3)), 266244, true, 1.0/3, Options{})
}

// BenchmarkReduceIntoSmall is ctrl_tcp's regime: an average out of place
// with weight 1/g by groups of 3, 4 and 8 (P = 3, P = 4, the 8-rank world),
// over loopback TCP and in process. n=108 is ctrl_tcp's model, as the
// default exchange (a gather to position 0 and a broadcast back) and as the
// ring it replaces (a segment of one chunk, the ring's geometry at the
// default frame size). The other cells bracket the rule at the transport's
// frame (32 Ki on TCP, 4 Ki in process): the largest n the exchange takes
// and one more element, which the ring takes; and twice that n, on the ring
// by default and on the exchange when a doubled segment admits it.
func BenchmarkReduceIntoSmall(b *testing.B) {
	const n = 108
	type cell struct {
		algo       string
		elems, seg int
	}
	for _, wire := range []string{"tcp", "mem"} {
		frame := 32 << 10 // TCP's FrameElems
		if wire == "mem" {
			frame = DefaultSegmentElems
		}
		for _, g := range []int{3, 4, 8} {
			thr := frame / (2 * (g - 1))
			cells := []cell{
				{"exchange", n, 0}, {"ring", n, n/g + 1},
				{"exchange", thr, 0}, {"ring", thr + 1, 0},
				{"exchange", 2 * thr, 2 * frame}, {"ring", 2 * thr, 0},
			}
			for _, c := range cells {
				b.Run(fmt.Sprintf("%s/g=%d/n=%d/%s", wire, g, c.elems, c.algo), func(b *testing.B) {
					world := asWorld(transport.NewMem(g))
					if wire == "tcp" {
						world = tcpWorld(b, g, transport.TCPOptions{})
					}
					if world[0].FrameElems() != frame {
						b.Fatalf("%s frame is %d elements, the cells assume %d", wire, world[0].FrameElems(), frame)
					}
					benchReduce(b, segmented(world, c.seg), c.elems, true, 1/float64(g), Options{})
				})
			}
		}
	}
}

// BenchmarkRingSegmented sweeps segment sizes.
func BenchmarkRingSegmented(b *testing.B) {
	for _, seg := range []int{4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("seg=%d", seg), func(b *testing.B) {
			benchReduce(b, segmented(transport.NewMem(4), seg), 1_000_000, false, 1, Options{})
		})
	}
}
