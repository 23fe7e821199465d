package controller

import (
	"fmt"
	"testing"
)

// The paper argues the controller cannot become a bottleneck (§4): each
// message is a few bytes and the work per signal is queue bookkeeping plus
// a windowed connectivity check. These benchmarks measure signals/second at
// cluster sizes far beyond the paper's 32 workers.
func BenchmarkControllerReady(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		for _, p := range []int{4, 16} {
			if p > n {
				continue
			}
			b.Run(fmt.Sprintf("N=%d/P=%d", n, p), func(b *testing.B) {
				c, err := New(Config{N: n, P: p})
				if err != nil {
					b.Fatal(err)
				}
				iters := make([]int, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w := i % n
					iters[w]++
					if _, err := c.Ready(Signal{Worker: w, Iter: iters[w]}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Dynamic weighting adds the EMA computation per group. DynamicWeights
// walks every relative-iteration slot up to the group's iteration gap, so
// its cost follows the gap. fast-forward moves each member to the group's
// Iter after aggregating, as the engine does (§3.3.3), so the gap stays at
// the spread of one round. unbounded-gap never does, so the gap grows with
// b.N: the worst case, not a rate any run reaches.
func BenchmarkControllerReadyDynamic(b *testing.B) {
	for _, ff := range []bool{true, false} {
		name := "fast-forward"
		if !ff {
			name = "unbounded-gap"
		}
		b.Run(name, func(b *testing.B) {
			c, err := New(Config{N: 64, P: 8, Weighting: Dynamic, Approx: ClosestIteration})
			if err != nil {
				b.Fatal(err)
			}
			iters := make([]int, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := i % 64
				iters[w] += 1 + w%3 // staggered iteration numbers exercise the EMA path
				gs, err := c.Ready(Signal{Worker: w, Iter: iters[w]})
				if err != nil {
					b.Fatal(err)
				}
				for _, g := range gs {
					for _, m := range g.Members {
						if ff {
							iters[m] = g.Iter // the members' models are the latest
						}
					}
				}
			}
		})
	}
}

func BenchmarkSyncGraphConnectivity(b *testing.B) {
	g := NewSyncGraph(512, 128)
	for i := 0; i < 128; i++ {
		g.Add([]int{i % 512, (i*7 + 1) % 512, (i*13 + 2) % 512})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Connected()
	}
}
