// Package netmodel provides the communication cost models the simulator
// charges for collective and parameter-server traffic. Costs follow the
// standard latency–bandwidth (α–β) model that governs ring-based collectives
// in Gloo/NCCL: a transfer of b bytes over one hop costs α + b/B, and a ring
// all-reduce among P members moving d bytes costs 2(P−1)·α + 2·(P−1)/P·d/B
// (reduce-scatter plus all-gather, Patarasuk & Yuan 2009 — the paper's
// reference [34]).
package netmodel

import "fmt"

// Params describes the cluster fabric.
type Params struct {
	// Latency is the per-hop message latency α in seconds.
	Latency float64
	// Bandwidth is the per-link bandwidth B in bytes/second.
	Bandwidth float64
	// PSBandwidth is the effective per-round bandwidth of the sharded
	// parameter server in bytes/second. PS rounds move the full model twice
	// (push gradients, pull weights); the default makes a PS round slightly
	// slower than ring all-reduce, matching Table 1 (BSP ≈ 1.1× AR) and the
	// CPU-side aggregation overhead §1 describes.
	PSBandwidth float64
	// CtrlRTT is the round-trip time of a controller message. Controller
	// traffic is a few bytes ("it will not involve any communication
	// overheads", §4), so only latency matters.
	CtrlRTT float64
}

// Default returns parameters calibrated to the paper's testbed: 8 V100s per
// node with PCIe/NVLink-class intra-node links, 10 GbE between nodes, and a
// sub-millisecond controller round trip.
func Default() Params {
	return Params{
		Latency:     50e-6,
		Bandwidth:   8e9,
		PSBandwidth: 5.6e9,
		CtrlRTT:     300e-6,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Latency < 0 || p.CtrlRTT < 0 {
		return fmt.Errorf("netmodel: negative latency")
	}
	if p.Bandwidth <= 0 || p.PSBandwidth <= 0 {
		return fmt.Errorf("netmodel: bandwidth must be positive")
	}
	return nil
}

// RingAllReduce returns the seconds a ring all-reduce among group members
// needs to combine bytes of data. A group of one is free.
func (p Params) RingAllReduce(group int, bytes int64) float64 {
	if group <= 1 {
		return 0
	}
	g := float64(group)
	steps := 2 * (g - 1)
	return float64(steps*p.Latency) + (steps/g)*float64(bytes)/p.Bandwidth
}

// PointToPoint returns the seconds one direct transfer of bytes takes.
func (p Params) PointToPoint(bytes int64) float64 {
	return p.Latency + float64(bytes)/p.Bandwidth
}

// PSExchange returns the seconds one worker needs for a push-gradient /
// pull-model round trip against the sharded parameter server.
func (p Params) PSExchange(bytes int64) float64 {
	return 2*p.Latency + 2*float64(bytes)/p.PSBandwidth
}

// PairAverage returns the seconds an atomic pairwise model average takes
// (AD-PSGD's primitive): ship the model one way, averaged result back.
func (p Params) PairAverage(bytes int64) float64 {
	return 2 * p.PointToPoint(bytes)
}
