package controller

import (
	"fmt"
	"math"
	"sort"
)

// Weighting selects the model-aggregation rule of a P-Reduce group.
type Weighting int

const (
	// Constant is §3.1's plain average: every member weighs 1/P.
	Constant Weighting = iota
	// Dynamic is §3.3's staleness-aware rule: exponential-moving-average
	// weights over relative iteration numbers, penalizing delayed models.
	Dynamic
)

// String implements fmt.Stringer.
func (w Weighting) String() string {
	switch w {
	case Constant:
		return "constant"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// ApproxRule chooses how Dynamic weighting handles relative iteration slots
// no group member occupies (§3.3.3).
type ApproxRule int

const (
	// InitialModel assigns missing slots' weight to the shared initial model
	// x₁ — the paper's "conservative approximation". The group result then
	// includes an InitWeight on x₁, which every worker holds a copy of.
	InitialModel ApproxRule = iota
	// ClosestIteration assigns each missing slot's weight to the member with
	// the nearest relative iteration number (ties to the fresher member) —
	// the paper's suggested alternative.
	ClosestIteration
)

// String implements fmt.Stringer.
func (r ApproxRule) String() string {
	switch r {
	case InitialModel:
		return "initial-model"
	case ClosestIteration:
		return "closest-iteration"
	default:
		return fmt.Sprintf("ApproxRule(%d)", int(r))
	}
}

// emaWeights distributes the EMA mass over relative iteration slots 1..kmax:
// slot ĵ (1 = freshest) receives (1−α)·α^(ĵ−1) / (1−α^kmax), Eq. (9) with
// the bias-corrected denominator.
func emaSlotWeight(alpha float64, slot, kmax int) float64 {
	if kmax == 1 {
		return 1
	}
	return (1 - alpha) * math.Pow(alpha, float64(slot-1)) / (1 - math.Pow(alpha, float64(kmax)))
}

// DynamicWeights computes the staleness-aware aggregation weights for a
// group whose members report iteration numbers iters. It returns one weight
// per member (aligned with iters) plus the weight assigned to the shared
// initial model under the InitialModel rule (0 under ClosestIteration).
// Weights plus initWeight always sum to 1.
func DynamicWeights(iters []int, alpha float64, rule ApproxRule) (weights []float64, initWeight float64) {
	p := len(iters)
	if p == 0 {
		return nil, 0
	}
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("controller: EMA alpha must be in (0,1), got %v", alpha))
	}
	maxIter := iters[0]
	for _, k := range iters[1:] {
		if k > maxIter {
			maxIter = k
		}
	}
	// Relative iteration number k̂_i = max_j k_j − k_i + 1 ∈ [1, k̂max].
	rel := make([]int, p)
	kmax := 1
	for i, k := range iters {
		rel[i] = maxIter - k + 1
		if rel[i] > kmax {
			kmax = rel[i]
		}
	}

	// Members occupying each slot (workers with equal relative iteration
	// split the slot's weight equally, §3.3.3).
	bySlot := make(map[int][]int, p)
	for i, r := range rel {
		bySlot[r] = append(bySlot[r], i)
	}

	weights = make([]float64, p)
	for slot := 1; slot <= kmax; slot++ {
		w := emaSlotWeight(alpha, slot, kmax)
		if members, ok := bySlot[slot]; ok {
			share := w / float64(len(members))
			for _, i := range members {
				weights[i] += share
			}
			continue
		}
		// Missing slot: apply the approximation rule.
		switch rule {
		case InitialModel:
			initWeight += w
		case ClosestIteration:
			members := bySlot[closestSlot(rel, slot)]
			share := w / float64(len(members))
			for _, i := range members {
				weights[i] += share
			}
		default:
			panic(fmt.Sprintf("controller: unknown ApproxRule %d", rule))
		}
	}
	return weights, initWeight
}

// closestSlot returns the occupied relative iteration nearest to slot,
// preferring the fresher (smaller k̂) slot on distance ties.
func closestSlot(rel []int, slot int) int {
	best, bestDist := 0, math.MaxInt
	for _, r := range rel {
		d := r - slot
		if d < 0 {
			d = -d
		}
		if d < bestDist || (d == bestDist && r < best) {
			best, bestDist = r, d
		}
	}
	return best
}

// ConstantWeights returns the 1/P weights of constant partial reduce.
func ConstantWeights(p int) []float64 {
	w := make([]float64, p)
	for i := range w {
		w[i] = 1 / float64(p)
	}
	return w
}

// sortedDescending returns a copy of iters sorted descending — the order the
// paper's controller collects iteration numbers in (§3.3.3).
func sortedDescending(iters []int) []int {
	out := make([]int, len(iters))
	copy(out, iters)
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
