package collective

import (
	"os"
	"testing"

	"partialreduce/internal/trace"
)

// BenchmarkAllReduceSumTraced is BenchmarkAllReduceSum with a live tracer
// attached: every op additionally records one collective span, two phase
// spans, and the clock reads around them. Comparing its ns/op against the
// untraced benchmark measures the tracing tax on the data plane; `make
// bench` prints both and the gate below bounds the regression.
func BenchmarkAllReduceSumTraced(b *testing.B) {
	tr := trace.New(trace.NewWallClock(), 1<<12)
	benchRing(b, 4, 1_000_000, Options{Tracer: tr, TraceTrack: 0, TraceIter: -1})
}

// TestTraceOverheadGate bounds the tracing-enabled all-reduce throughput
// regression at <3%. Timing-sensitive, so it only runs when
// PREDUCE_TRACEGATE=1 (make bench sets it); a bare `go test` on a loaded
// machine would flake. Each variant takes the best of three trials to
// damp scheduler noise.
func TestTraceOverheadGate(t *testing.T) {
	if os.Getenv("PREDUCE_TRACEGATE") == "" {
		t.Skip("set PREDUCE_TRACEGATE=1 (make bench) to run the trace-overhead gate")
	}
	const elems = 1 << 18
	measure := func(opts Options) float64 {
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			r := testing.Benchmark(func(b *testing.B) { benchRing(b, 4, elems, opts) })
			ns := float64(r.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	base := measure(Options{})
	tr := trace.New(trace.NewWallClock(), 1<<12)
	traced := measure(Options{Tracer: tr, TraceTrack: 0, TraceIter: -1})

	ratio := traced / base
	t.Logf("all-reduce ns/op: untraced=%.0f traced=%.0f ratio=%.4f", base, traced, ratio)
	if ratio > 1.03 {
		t.Fatalf("tracing overhead %.2f%% exceeds the 3%% budget (untraced %.0f ns/op, traced %.0f ns/op)",
			(ratio-1)*100, base, traced)
	}
}
