package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), or NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method) — the rule
// the driver uses for run-to-run spread, so repeat.sh and the driver agree.
// Fewer than two values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// variant names what a rep runs: one of the two training algorithms, or the
// benchmark's own reference job (reference.go).
type variant int

const (
	vPReduce variant = iota
	vAllReduce
	vReference
)

func (v variant) String() string {
	switch v {
	case vPReduce:
		return "preduce"
	case vAllReduce:
		return "allreduce"
	}
	return "reference"
}

// abbaOrder returns the rep order for quads interleaved blocks: P A A P per
// block, so a host that drifts linearly across a block slows both variants
// by the same amount.
func abbaOrder(quads int) []variant {
	order := make([]variant, 0, 4*quads)
	for q := 0; q < quads; q++ {
		order = append(order, vPReduce, vAllReduce, vAllReduce, vPReduce)
	}
	return order
}

// referencedOrder is abbaOrder with a reference rep before every product
// rep: R P R A R A R P per block. The caller closes the sequence with one
// more R, so every product rep sits between two reference reps.
func referencedOrder(quads int) []variant {
	var order []variant
	for _, v := range abbaOrder(quads) {
		order = append(order, vReference, v)
	}
	return order
}

// normalizeRates expresses every product rep's rate relative to the mean of
// the reference reps around it in run order, scaled by nominal (the
// reference's rate on a quiet host, so the result reads as steps per second
// there): rate / reference rate * nominal. A failed rep reads 0: a failed
// reference neighbour leaves the other one to stand alone, a product rep
// with no usable neighbour is left out, and so is a failed product rep.
// With nominal 0 the workload has no reference and rates pass through.
func normalizeRates(order []variant, rates []float64, nominal float64) map[variant][]float64 {
	out := map[variant][]float64{}
	for i, v := range order {
		if v == vReference || rates[i] <= 0 {
			continue
		}
		if nominal == 0 {
			out[v] = append(out[v], rates[i])
			continue
		}
		var ref, n float64
		for _, j := range []int{i - 1, i + 1} {
			if j >= 0 && j < len(order) && order[j] == vReference && rates[j] > 0 {
				ref += rates[j]
				n++
			}
		}
		if n > 0 {
			out[v] = append(out[v], rates[i]/(ref/n)*nominal)
		}
	}
	return out
}

// pairRatios walks an interleaved rep sequence and returns, for every
// adjacent (P-Reduce, All-Reduce) pair in either order, the P-Reduce rate
// over the All-Reduce rate. Each rep belongs to at most one pair, so an
// ABBA quad yields two ratios: P1/A1 and P2/A2. Reference reps are skipped
// first: they take no part.
func pairRatios(order []variant, rates []float64) []float64 {
	order, rates = withoutReference(order, rates)
	var out []float64
	for i := 0; i+1 < len(order); i++ {
		if order[i] == order[i+1] {
			continue
		}
		p, a := rates[i], rates[i+1]
		if order[i] == vAllReduce {
			p, a = a, p
		}
		if a > 0 && p > 0 {
			out = append(out, p/a)
		}
		i++
	}
	return out
}

// withoutReference drops the reference reps from a run-order sequence.
func withoutReference(order []variant, rates []float64) ([]variant, []float64) {
	var o []variant
	var r []float64
	for i, v := range order {
		if v != vReference {
			o = append(o, v)
			r = append(r, rates[i])
		}
	}
	return o, r
}
