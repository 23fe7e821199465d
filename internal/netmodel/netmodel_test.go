package netmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Latency: -1, Bandwidth: 1, PSBandwidth: 1},
		{Latency: 0, Bandwidth: 0, PSBandwidth: 1},
		{Latency: 0, Bandwidth: 1, PSBandwidth: 0},
		{Latency: 0, Bandwidth: 1, PSBandwidth: 1, CtrlRTT: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRingAllReduceFormula(t *testing.T) {
	p := Params{Latency: 1e-3, Bandwidth: 1e9, PSBandwidth: 1e9}
	// P=4, 1 GB: 2*3*1ms + (6/4)*1s = 6ms + 1.5s
	got := p.RingAllReduce(4, 1e9)
	want := 6e-3 + 1.5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestRingAllReduceDegenerateGroups(t *testing.T) {
	p := Default()
	if p.RingAllReduce(1, 1<<30) != 0 {
		t.Fatal("group of 1 should be free")
	}
	if p.RingAllReduce(0, 1<<30) != 0 {
		t.Fatal("group of 0 should be free")
	}
}

func TestRingBandwidthTermApproaches2x(t *testing.T) {
	// As the group grows, the bandwidth term approaches 2·d/B — the classic
	// bandwidth-optimality property of ring all-reduce.
	p := Params{Latency: 0, Bandwidth: 1e9, PSBandwidth: 1e9}
	d := int64(1e9)
	small := p.RingAllReduce(2, d)  // 2*(1/2) = 1.0s
	large := p.RingAllReduce(64, d) // 2*(63/64) ≈ 1.969s
	if math.Abs(small-1.0) > 1e-9 {
		t.Fatalf("P=2: %v", small)
	}
	if large <= small || large >= 2.0 {
		t.Fatalf("P=64: %v, want in (1, 2)", large)
	}
}

func TestPSExchangeVsRing(t *testing.T) {
	p := Default()
	d := int64(87_200_000) // ResNet-34 float32 bytes
	ring := p.RingAllReduce(8, d)
	ps := p.PSExchange(d)
	if ps <= ring {
		t.Fatalf("PS round (%v) should be slower than ring all-reduce (%v)", ps, ring)
	}
	if ps > 2*ring {
		t.Fatalf("PS round (%v) should stay within ~2x of ring (%v)", ps, ring)
	}
}

func TestPairAverage(t *testing.T) {
	p := Params{Latency: 1e-3, Bandwidth: 1e6, PSBandwidth: 1e6}
	got := p.PairAverage(1e6)
	want := 2 * (1e-3 + 1.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

// Property: all costs are non-negative and monotone in bytes.
func TestQuickCostMonotonicity(t *testing.T) {
	p := Default()
	f := func(bytesA, bytesB uint32, group uint8) bool {
		a, b := int64(bytesA), int64(bytesB)
		if a > b {
			a, b = b, a
		}
		g := int(group%16) + 2
		return p.RingAllReduce(g, a) <= p.RingAllReduce(g, b) &&
			p.PointToPoint(a) <= p.PointToPoint(b) &&
			p.PSExchange(a) <= p.PSExchange(b) &&
			p.RingAllReduce(g, a) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ring cost is monotone in group size for fixed bytes (more hops,
// more latency; bandwidth term also grows with (P-1)/P).
func TestQuickRingMonotoneInGroup(t *testing.T) {
	p := Default()
	for g := 2; g < 64; g++ {
		if p.RingAllReduce(g+1, 1<<26) < p.RingAllReduce(g, 1<<26) {
			t.Fatalf("ring cost decreased from P=%d to P=%d", g, g+1)
		}
	}
}

// Calibration guard: with default parameters and paper model sizes, the
// simulated AR per-update times must land in the regime Table 1 reports
// (compute+ring ≈ 0.43 / 0.29 / 0.81 seconds for ResNet-34 / VGG-19 /
// DenseNet-121 at HL=1). This pins the calibration DESIGN.md documents.
func TestCalibrationAgainstTable1(t *testing.T) {
	p := Default()
	cases := []struct {
		name        string
		bytes       int64
		compute     float64
		paperUpdate float64
	}{
		{"resnet34", 21_800_000 * 4, 0.410, 0.432},
		{"vgg19", 143_700_000 * 4, 0.160, 0.286},
		{"densenet121", 8_000_000 * 4, 0.800, 0.820},
	}
	for _, c := range cases {
		got := c.compute + p.RingAllReduce(8, c.bytes)
		if math.Abs(got-c.paperUpdate)/c.paperUpdate > 0.10 {
			t.Errorf("%s: simulated AR update %.3fs vs paper %.3fs (>10%% off)", c.name, got, c.paperUpdate)
		}
	}
}
