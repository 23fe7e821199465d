package collective

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

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

// tcpWorld builds an n-rank loopback TCP mesh, closed at cleanup. A port the
// kernel reported free can be taken before its endpoint binds it, so a mesh
// that fails to form is torn down and rebuilt on fresh ports; only five
// failures in a row fail the test.
func tcpWorld(t testing.TB, n int, opts transport.TCPOptions) []transport.Transport {
	t.Helper()
	if opts.MeshTimeout == 0 {
		opts.MeshTimeout = 3 * time.Second
	}
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var eps []*transport.TCP
		if eps, err = tcpWorldOnce(n, opts); err == nil {
			t.Cleanup(func() {
				for _, ep := range eps {
					ep.Close()
				}
			})
			return asWorld(eps)
		}
	}
	t.Fatal(err)
	return nil
}

func tcpWorldOnce(n int, opts transport.TCPOptions) ([]*transport.TCP, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
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
	for r, err := range errs {
		if err != nil {
			for _, ep := range eps {
				if ep != nil {
					ep.Close()
				}
			}
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return eps, nil
}

// reduceEverywhere runs a default-Options ReduceInto of xs[r] on every rank
// r of world (out of place, weight 1/g, post 1) and returns each rank's
// result and counters.
func reduceEverywhere(t *testing.T, world []transport.Transport, xs [][]float64) ([][]float64, []OpStats) {
	t.Helper()
	g := len(world)
	weights := make([]float64, g)
	for r := range weights {
		weights[r] = 1 / float64(g)
	}
	dst := nanVectors(g, len(xs[0]))
	stats, errs := reduceWorld(world, 1, dst, xs, weights, 1, Options{})
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

// TestFrameElemsByTransport: the frame and the ring's segment come from the
// transport. Mem keeps the in-process frame, and its rings of 5 or more
// members move 32 Ki segments (at 4 the small frame still wins, at 5 the
// large one: docs/perf-log.md, "wide in-process rings"); TCP sends 32 Ki
// frames and segments at every group size unless its receivers accept
// fewer; a Faulty endpoint reports what it wraps.
func TestFrameElemsByTransport(t *testing.T) {
	mem := asWorld(transport.NewMem(2))
	faultyMem, err := transport.NewFaultyWorld(mem, transport.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	capped := tcpWorld(t, 2, transport.TCPOptions{MaxFrameElems: 1000})
	faultyTCP, err := transport.NewFaultyEndpoint(capped[0], transport.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	const ki4, ki32 = DefaultSegmentElems, 32 << 10
	groups := []int{3, 4, 5, 8}
	for _, c := range []struct {
		name  string
		ep    transport.Transport
		frame int
		segs  []int // SegmentElems(g) for each of groups
	}{
		{"Mem", mem[0], ki4, []int{ki4, ki4, ki32, ki32}},
		{"Faulty over Mem", faultyMem[1], ki4, []int{ki4, ki4, ki32, ki32}},
		{"TCP", tcpWorld(t, 2, transport.TCPOptions{})[0], ki32, []int{ki32, ki32, ki32, ki32}},
		{"TCP with MaxFrameElems 1000", capped[1], 1000, []int{1000, 1000, 1000, 1000}},
		{"Faulty over TCP with MaxFrameElems 1000", faultyTCP, 1000, []int{1000, 1000, 1000, 1000}},
	} {
		if got := c.ep.FrameElems(); got != c.frame {
			t.Errorf("%s: FrameElems = %d, want %d", c.name, got, c.frame)
		}
		for i, g := range groups {
			if got := c.ep.SegmentElems(g); got != c.segs[i] {
				t.Errorf("%s: SegmentElems(%d) = %d, want %d", c.name, g, got, c.segs[i])
			}
		}
	}
}

// TestDefaultGeometryFollowsTransport reduces with default Options over Mem
// and over loopback TCP, and counts each rank's segments:
//   - the repository benchmark's P = 3 group (266,244 elements, chunks of
//     88,748): Mem moves 22 segments per ring step (4 steps per op: 88 per
//     rank), TCP 3 of 32 Ki;
//   - its 8-rank All-Reduce world ring (chunks of 33,281): 2 segments of
//     32 Ki per ring step over both (14 steps);
//   - 340 elements at g = 8 (the hetero model): Mem keeps the ring, one
//     segment per step, since 2(g−1)·n exceeds its 4 Ki frame even though it
//     fits the 32 Ki segment; TCP's 32 Ki frame takes the exchange: the
//     root sends 7 frames, every other member 1.
//
// Same inputs, different geometry, identical bits; the bytes match too
// wherever both sides run the ring.
func TestDefaultGeometryFollowsTransport(t *testing.T) {
	for _, c := range []struct {
		g, n             int
		memSegs, tcpSegs int64
		tcpExchange      bool // TCP runs the exchange (tcpSegs unused), Mem the ring
	}{
		{3, 266244, 4 * 22, 4 * 3, false},
		{8, 266244, 14 * 2, 14 * 2, false},
		{8, 340, 14, -1, true},
	} {
		g := c.g
		xs := groupInputs(g, c.n)
		memDst, memStats := reduceEverywhere(t, asWorld(transport.NewMem(g)), xs)
		tcpDst, tcpStats := reduceEverywhere(t, tcpWorld(t, g, transport.TCPOptions{}), xs)
		for r := 0; r < g; r++ {
			if got := memStats[r].Segments; got != c.memSegs {
				t.Fatalf("g=%d n=%d Mem rank %d: %d segments, want %d", g, c.n, r, got, c.memSegs)
			}
			if c.tcpExchange {
				checkExchangeFrames(t, fmt.Sprintf("g=%d n=%d TCP", g, c.n), g, c.n, r, tcpStats[r])
			} else if got := tcpStats[r].Segments; got != c.tcpSegs {
				t.Fatalf("g=%d n=%d TCP rank %d: %d segments, want %d", g, c.n, r, got, c.tcpSegs)
			}
			if !c.tcpExchange && memStats[r].BytesSent != tcpStats[r].BytesSent {
				t.Fatalf("g=%d n=%d rank %d: %d bytes over Mem, %d over TCP", g, c.n, r, memStats[r].BytesSent, tcpStats[r].BytesSent)
			}
			if i := diffBits(tcpDst[r], memDst[r]); i >= 0 {
				t.Fatalf("g=%d n=%d rank %d elem %d: TCP %x != Mem %x", g, c.n, r, i, tcpDst[r][i], memDst[r][i])
			}
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
