package collective

import (
	"net"
	"sync"
	"testing"

	"partialreduce/internal/transport"
)

// asWorld widens a slice of concrete endpoints to the interface.
func asWorld[T transport.Transport](eps []T) []transport.Transport {
	out := make([]transport.Transport, len(eps))
	for i, ep := range eps {
		out[i] = ep
	}
	return out
}

// tcpWorld builds an n-rank loopback TCP mesh, closed at cleanup.
func tcpWorld(t *testing.T, n int, opts transport.TCPOptions) []transport.Transport {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	eps := make([]*transport.TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[r], errs[r] = transport.NewTCPOpts(r, addrs, opts)
		}()
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return asWorld(eps)
}

// reduceEverywhere runs a default-Options ReduceInto of xs[r] on every rank
// r of world (out of place, weight 1/g, post 1) and returns each rank's
// result and counters.
func reduceEverywhere(t *testing.T, world []transport.Transport, xs [][]float64) ([][]float64, []OpStats) {
	t.Helper()
	g := len(world)
	group := make([]int, g)
	for r := range group {
		group[r] = r
	}
	dst := nanVectors(g, len(xs[0]))
	stats := make([]OpStats, g)
	errs := make([]error, g)
	var wg sync.WaitGroup
	for r := range world {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = ReduceInto(world[r], group, 1, dst[r], xs[r], 1/float64(g), 1, Options{Stats: &stats[r]})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return dst, stats
}

// groupInputs is a P-Reduce group's operands: g vectors of n elements.
func groupInputs(g, n int) [][]float64 {
	xs := make([][]float64, g)
	for r := range xs {
		xs[r] = make([]float64, n)
		for i := range xs[r] {
			xs[r][i] = float64(i%1013)/7 - float64(r)*1.5
		}
	}
	return xs
}

// TestFrameElemsByTransport: the segment size comes from the transport. Mem
// keeps the in-process size, TCP sends 32 Ki-element frames unless its
// receivers accept fewer, and a Faulty endpoint reports what it wraps.
func TestFrameElemsByTransport(t *testing.T) {
	mem := transport.NewMem(2)
	if got := mem[0].FrameElems(); got != DefaultSegmentElems {
		t.Fatalf("Mem.FrameElems = %d, want DefaultSegmentElems %d", got, DefaultSegmentElems)
	}
	faulty, err := transport.NewFaultyWorld(asWorld(mem), transport.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	if got := faulty[1].FrameElems(); got != DefaultSegmentElems {
		t.Fatalf("Faulty over Mem: FrameElems = %d, want %d", got, DefaultSegmentElems)
	}
	if got := tcpWorld(t, 2, transport.TCPOptions{})[0].FrameElems(); got != 32<<10 {
		t.Fatalf("TCP.FrameElems = %d, want %d", got, 32<<10)
	}
	capped := tcpWorld(t, 2, transport.TCPOptions{MaxFrameElems: 1000})
	ep, err := transport.NewFaultyEndpoint(capped[0], transport.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ep.FrameElems(); got != 1000 {
		t.Fatalf("Faulty over TCP with MaxFrameElems 1000: FrameElems = %d", got)
	}
}

// TestDefaultGeometryFollowsTransport reduces the repository benchmark's
// P = 3 group (266,244 elements, chunks of 88,748) with default Options over
// Mem and over loopback TCP. Mem moves the parent's 22 segments per ring step
// (4 steps per op: 88 per rank); TCP moves 3 of 32 Ki. Same inputs, different
// geometry, identical bits.
func TestDefaultGeometryFollowsTransport(t *testing.T) {
	const g, n = 3, 266244
	xs := groupInputs(g, n)
	memDst, memStats := reduceEverywhere(t, asWorld(transport.NewMem(g)), xs)
	tcpDst, tcpStats := reduceEverywhere(t, tcpWorld(t, g, transport.TCPOptions{}), xs)
	for r := 0; r < g; r++ {
		if got := memStats[r].Segments; got != 4*22 {
			t.Fatalf("Mem rank %d: %d segments, want 88", r, got)
		}
		if got := tcpStats[r].Segments; got != 4*3 {
			t.Fatalf("TCP rank %d: %d segments, want 12", r, got)
		}
		if memStats[r].BytesSent != tcpStats[r].BytesSent {
			t.Fatalf("rank %d: %d bytes over Mem, %d over TCP", r, memStats[r].BytesSent, tcpStats[r].BytesSent)
		}
		if i := diffBits(tcpDst[r], memDst[r]); i >= 0 {
			t.Fatalf("rank %d elem %d: TCP %x != Mem %x", r, i, tcpDst[r][i], memDst[r][i])
		}
	}
}

// TestTCPFrameLimitBoundsSegments: a mesh whose receivers reject frames over
// 8 Ki elements as corruption must never be sent one. A default-Options
// reduce of 100,000 elements (chunks of 33,334) completes with every peer
// still up.
func TestTCPFrameLimitBoundsSegments(t *testing.T) {
	const g, limit = 3, 8 << 10
	world := tcpWorld(t, g, transport.TCPOptions{MaxFrameElems: limit})
	_, stats := reduceEverywhere(t, world, groupInputs(g, 100_000))
	for r, ep := range world {
		if down := ep.(*transport.TCP).DownPeers(); len(down) != 0 {
			t.Fatalf("rank %d declared %v down: a frame exceeded MaxFrameElems", r, down)
		}
		if got := stats[r].Segments; got != 4*5 {
			t.Fatalf("rank %d: %d segments, want 4 steps × 5 of %d", r, got, limit)
		}
	}
}
