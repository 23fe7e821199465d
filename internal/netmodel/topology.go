package netmodel

import "fmt"

// Topology models the paper's communication heterogeneity (Case 1, §1):
// workers have different link speeds (NICs, PCIe switches, hierarchy) and
// may sit in different zones (geo-distributed data centers), where
// intra-zone communication can be an order of magnitude faster than
// inter-zone. A nil *Topology means the flat, homogeneous fabric of Params.
type Topology struct {
	// LinkSpeed multiplies Params.Bandwidth per worker (1 = full speed).
	// Empty means every worker runs at full speed.
	LinkSpeed []float64
	// Zone assigns each worker to a zone (data center). Empty means one
	// zone.
	Zone []int
	// CrossLatency is the per-hop latency between zones; zero keeps
	// Params.Latency.
	CrossLatency float64
	// CrossBandwidth caps the bandwidth of any transfer that crosses zones;
	// zero keeps Params.Bandwidth.
	CrossBandwidth float64
}

// Validate reports whether the topology is consistent for n workers.
func (t *Topology) Validate(n int) error {
	if t == nil {
		return nil
	}
	if len(t.LinkSpeed) != 0 && len(t.LinkSpeed) != n {
		return fmt.Errorf("netmodel: %d link speeds for %d workers", len(t.LinkSpeed), n)
	}
	for i, s := range t.LinkSpeed {
		if s <= 0 {
			return fmt.Errorf("netmodel: worker %d link speed %v must be positive", i, s)
		}
	}
	if len(t.Zone) != 0 && len(t.Zone) != n {
		return fmt.Errorf("netmodel: %d zones for %d workers", len(t.Zone), n)
	}
	if t.CrossLatency < 0 || t.CrossBandwidth < 0 {
		return fmt.Errorf("netmodel: negative cross-zone parameters")
	}
	return nil
}

// speed returns worker w's link-speed multiplier.
func (t *Topology) speed(w int) float64 {
	if t == nil || len(t.LinkSpeed) == 0 {
		return 1
	}
	return t.LinkSpeed[w]
}

// ZoneOf returns worker w's zone (0 when unzoned).
func (t *Topology) ZoneOf(w int) int {
	if t == nil || len(t.Zone) == 0 {
		return 0
	}
	return t.Zone[w]
}

// spansZones reports whether members sit in more than one zone.
func (t *Topology) spansZones(members []int) bool {
	if t == nil || len(t.Zone) == 0 || len(members) < 2 {
		return false
	}
	z := t.ZoneOf(members[0])
	for _, m := range members[1:] {
		if t.ZoneOf(m) != z {
			return true
		}
	}
	return false
}

// RingAllReduce returns the seconds a ring all-reduce among members takes:
// the bandwidth term is bounded by the group's slowest link (and by the
// cross-zone cap when the ring spans zones), the latency term by the
// cross-zone latency.
func (t *Topology) RingAllReduce(p Params, members []int, bytes int64) float64 {
	g := len(members)
	if g <= 1 {
		return 0
	}
	bw := p.Bandwidth
	if t != nil {
		minSpeed := 1.0
		for _, m := range members {
			if s := t.speed(m); s < minSpeed {
				minSpeed = s
			}
		}
		bw *= minSpeed
	}
	lat := p.Latency
	if t.spansZones(members) {
		if t.CrossLatency > 0 {
			lat = t.CrossLatency
		}
		if t.CrossBandwidth > 0 && t.CrossBandwidth < bw {
			bw = t.CrossBandwidth
		}
	}
	gf := float64(g)
	steps := 2 * (gf - 1)
	return float64(steps*lat) + (steps/gf)*float64(bytes)/bw
}

// PSExchange returns worker w's push/pull round trip against the sharded
// parameter server through its own link (crossing zones if the server
// placement — zone 0 by convention — differs from w's zone).
func (t *Topology) PSExchange(p Params, w int, bytes int64) float64 {
	bw := p.PSBandwidth
	lat := p.Latency
	if t != nil {
		bw *= t.speed(w)
		if t.ZoneOf(w) != 0 {
			if t.CrossLatency > 0 {
				lat = t.CrossLatency
			}
			if t.CrossBandwidth > 0 && t.CrossBandwidth < bw {
				bw = t.CrossBandwidth
			}
		}
	}
	return 2*lat + 2*float64(bytes)/bw
}

// PairAverage returns the seconds an atomic pairwise model average between
// workers a and b takes.
func (t *Topology) PairAverage(p Params, a, b int, bytes int64) float64 {
	bw := p.Bandwidth
	lat := p.Latency
	if t != nil {
		s := t.speed(a)
		if sb := t.speed(b); sb < s {
			s = sb
		}
		bw *= s
		if t.ZoneOf(a) != t.ZoneOf(b) {
			if t.CrossLatency > 0 {
				lat = t.CrossLatency
			}
			if t.CrossBandwidth > 0 && t.CrossBandwidth < bw {
				bw = t.CrossBandwidth
			}
		}
	}
	return 2 * (lat + float64(bytes)/bw)
}

// GeoDistributed returns a two-zone topology splitting n workers evenly,
// with inter-zone transfers paying crossLat seconds per hop and capped at
// crossBW bytes/second — the paper's geo-distributed data-center case.
func GeoDistributed(n int, crossLat, crossBW float64) *Topology {
	zone := make([]int, n)
	for i := n / 2; i < n; i++ {
		zone[i] = 1
	}
	return &Topology{Zone: zone, CrossLatency: crossLat, CrossBandwidth: crossBW}
}
