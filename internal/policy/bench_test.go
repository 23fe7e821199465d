package policy

import (
	"os"
	"testing"
)

// benchInputs builds a warm 16-worker decision context: every worker has
// a cadence estimate and the queue holds one signal per worker — the
// worst case the decision path sees per formation event.
func benchInputs(pol Policy, n int) Inputs {
	now := 0.0
	for r := 1; r <= 8; r++ {
		for w := 0; w < n; w++ {
			now += 0.01
			pol.OnSignal(w, r, now+float64(w)*0.1)
		}
	}
	alive := make([]bool, n)
	queue := make([]QueuedSignal, n)
	for w := 0; w < n; w++ {
		alive[w] = true
		queue[w] = QueuedSignal{Worker: w, Iter: 8, Staleness: w % 3, Wait: float64(w) * 0.01}
	}
	return Inputs{
		Now: now, ConfigP: 4,
		Alive: n, AliveMask: alive, Queue: queue,
	}
}

// BenchmarkPolicyDecide measures the steady-state decision path for each
// shipped policy at N=16. make bench runs it with -benchmem; the gate
// below bounds it at 1µs and zero allocations per decision.
func BenchmarkPolicyDecide(b *testing.B) {
	for _, name := range []string{NameStatic, NameAdaptiveP, NameStragglerBias} {
		b.Run(name, func(b *testing.B) {
			pol, err := New(Spec{Name: name, PMin: 2, PMax: 8, Window: 4}, 16, 4)
			if err != nil {
				b.Fatal(err)
			}
			in := benchInputs(pol, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.GroupsFormed = i
				pol.Decide(in)
			}
		})
	}
}

// TestPolicyDecideGate bounds the decision path at 1µs and 0 allocs per
// op in steady state. Timing-sensitive, so it only runs when
// PREDUCE_POLICYGATE=1 (make bench sets it); best-of-three damps
// scheduler noise, as in the collective trace-overhead gate.
func TestPolicyDecideGate(t *testing.T) {
	if os.Getenv("PREDUCE_POLICYGATE") == "" {
		t.Skip("set PREDUCE_POLICYGATE=1 (make bench) to run the policy decision-path gate")
	}
	for _, name := range []string{NameStatic, NameAdaptiveP, NameStragglerBias} {
		pol, err := New(Spec{Name: name, PMin: 2, PMax: 8, Window: 4}, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		in := benchInputs(pol, 16)
		var bestNs float64
		var allocs int64
		for trial := 0; trial < 3; trial++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					in.GroupsFormed = i
					pol.Decide(in)
				}
			})
			ns := float64(r.NsPerOp())
			if bestNs == 0 || ns < bestNs {
				bestNs = ns
				allocs = r.AllocsPerOp()
			}
		}
		t.Logf("%s: %.0f ns/op, %d allocs/op", name, bestNs, allocs)
		if bestNs > 1000 {
			t.Errorf("%s: decision path %.0f ns/op exceeds the 1µs budget", name, bestNs)
		}
		if allocs != 0 {
			t.Errorf("%s: decision path allocates (%d allocs/op), want 0", name, allocs)
		}
	}
}
