// Package spectral reproduces the paper's convergence analysis machinery
// (§3.2): building the expected synchronization matrix E[W_k] from a group
// distribution, computing its eigenvalues with a cyclic Jacobi solver, the
// spectral bound ρ = max(|λ₂|, |λ_N|) of Assumption 2(3), the derived
// quantity ρ̄ = ρ/(1−ρ) + 2√ρ/(1−√ρ)² of Theorem 1, and the learning-rate
// feasibility condition Eq. (7).
package spectral

import (
	"fmt"
	"math"
	"sort"

	"partialreduce/internal/tensor"
)

// GroupDist is a distribution over P-Reduce groups: Groups[i] occurs with
// probability Probs[i]. Probabilities must sum to 1.
type GroupDist struct {
	N      int
	Groups [][]int
	Probs  []float64
}

// Validate reports whether the distribution is usable.
func (d GroupDist) Validate() error {
	if d.N < 2 {
		return fmt.Errorf("spectral: need N >= 2, got %d", d.N)
	}
	if len(d.Groups) == 0 || len(d.Groups) != len(d.Probs) {
		return fmt.Errorf("spectral: %d groups with %d probabilities", len(d.Groups), len(d.Probs))
	}
	var total float64
	for i, g := range d.Groups {
		if len(g) < 1 {
			return fmt.Errorf("spectral: group %d is empty", i)
		}
		seen := map[int]bool{}
		for _, w := range g {
			if w < 0 || w >= d.N {
				return fmt.Errorf("spectral: group %d member %d out of range", i, w)
			}
			if seen[w] {
				return fmt.Errorf("spectral: group %d repeats member %d", i, w)
			}
			seen[w] = true
		}
		if d.Probs[i] < 0 {
			return fmt.Errorf("spectral: negative probability %v", d.Probs[i])
		}
		total += d.Probs[i]
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("spectral: probabilities sum to %v", total)
	}
	return nil
}

// MeanW builds E[W_k] for the distribution: each group S contributes, with
// its probability, the matrix with 1/|S| on the S×S block and identity on
// the workers outside S (Eq. 4).
func MeanW(d GroupDist) (*tensor.Matrix, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	m := tensor.NewMatrix(d.N, d.N)
	for gi, g := range d.Groups {
		prob := d.Probs[gi]
		inv := 1 / float64(len(g))
		in := make([]bool, d.N)
		for _, w := range g {
			in[w] = true
		}
		for _, a := range g {
			for _, b := range g {
				m.Set(a, b, m.At(a, b)+float64(prob*inv))
			}
		}
		for w := 0; w < d.N; w++ {
			if !in[w] {
				m.Set(w, w, m.At(w, w)+prob)
			}
		}
	}
	return m, nil
}

// UniformGroups returns the distribution where every P-subset of N workers
// is equally likely — the homogeneous-environment limit.
func UniformGroups(n, p int) GroupDist {
	var groups [][]int
	var build func(start int, cur []int)
	build = func(start int, cur []int) {
		if len(cur) == p {
			g := make([]int, p)
			copy(g, cur)
			groups = append(groups, g)
			return
		}
		for w := start; w < n; w++ {
			build(w+1, append(cur, w))
		}
	}
	build(0, nil)
	probs := make([]float64, len(groups))
	for i := range probs {
		probs[i] = 1 / float64(len(groups))
	}
	return GroupDist{N: n, Groups: groups, Probs: probs}
}

// Eigenvalues returns the eigenvalues of the symmetric matrix m in
// descending order, computed with the cyclic Jacobi rotation method.
// It returns an error if m is not square or not symmetric.
func Eigenvalues(m *tensor.Matrix) ([]float64, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("spectral: matrix is %dx%d, not square", m.Rows, m.Cols)
	}
	if !m.IsSymmetric(1e-9) {
		return nil, fmt.Errorf("spectral: matrix is not symmetric")
	}
	n := m.Rows
	a := m.Clone()

	const (
		maxSweeps = 100
		tol       = 1e-14
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(a.At(i, j) * a.At(i, j))
			}
		}
		if off < tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				// Apply the rotation J(p,q,θ)ᵀ A J(p,q,θ).
				for k := 0; k < n; k++ {
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, float64(c*akp)-float64(s*akq))
					a.Set(k, q, float64(s*akp)+float64(c*akq))
				}
				for k := 0; k < n; k++ {
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, float64(c*apk)-float64(s*aqk))
					a.Set(q, k, float64(s*apk)+float64(c*aqk))
				}
			}
		}
	}
	eigs := make([]float64, n)
	for i := 0; i < n; i++ {
		eigs[i] = a.At(i, i)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(eigs)))
	return eigs, nil
}

// Rho returns the spectral bound ρ = max(|λ₂|, |λ_N|) of E[W] (Eq. 6).
// A doubly stochastic E[W] always has λ₁ = 1, which is excluded.
func Rho(meanW *tensor.Matrix) (float64, error) {
	eigs, err := Eigenvalues(meanW)
	if err != nil {
		return 0, err
	}
	if len(eigs) < 2 {
		return 0, nil
	}
	rho := math.Abs(eigs[1])
	if last := math.Abs(eigs[len(eigs)-1]); last > rho {
		rho = last
	}
	return rho, nil
}

// RhoBar returns ρ̄ = ρ/(1−ρ) + 2√ρ/(1−√ρ)², the network-error coefficient
// of Theorem 1. It returns +Inf at ρ = 1 (no spectral gap).
func RhoBar(rho float64) float64 {
	if rho < 0 {
		panic(fmt.Sprintf("spectral: negative rho %v", rho))
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	sq := math.Sqrt(rho)
	return rho/(1-rho) + 2*sq/((1-sq)*(1-sq))
}

// LearningRateFeasible checks Theorem 1's step-size condition Eq. (7):
// ηL + 2N³η²ρ̄/P² ≤ 1 with η = (P/N)·γ.
func LearningRateFeasible(gamma, lipschitz float64, n, p int, rho float64) bool {
	eta := float64(p) / float64(n) * gamma
	lhs := float64(eta*lipschitz) + 2*math.Pow(float64(n), 3)*eta*eta*RhoBar(rho)/float64(p*p)
	return lhs <= 1
}

// ConvergenceBound evaluates the right-hand side of Theorem 1's bound
// (Eq. 8) for a run of K iterations: 2(F(u₁)−F_inf)/(ηK) + ηLσ²/P +
// 2η²L²σ²N³ρ̄/P². Experiments use it to show how ρ (heterogeneity) inflates
// the network-error term.
func ConvergenceBound(f1MinusFinf, gamma, lipschitz, sigma2 float64, n, p, k int, rho float64) float64 {
	eta := float64(float64(p) / float64(n) * gamma)
	sgdErr := 2*f1MinusFinf/(eta*float64(k)) + eta*lipschitz*sigma2/float64(p)
	netErr := 2 * eta * eta * lipschitz * lipschitz * sigma2 * math.Pow(float64(n), 3) * RhoBar(rho) / float64(p*p)
	return sgdErr + netErr
}

// UniformRho returns the closed-form spectral bound for the uniform group
// distribution (homogeneous environment): with every P-subset of N workers
// equally likely, E[W] = (d−e)·I + e·J with equal off-diagonals, whose
// second eigenvalue works out to ρ = 1 − (P−1)/(N−1). It is 0 at P=N (the
// All-Reduce limit) and grows as groups shrink — less mixing per update.
func UniformRho(n, p int) float64 {
	if n < 2 || p < 1 || p > n {
		panic(fmt.Sprintf("spectral: UniformRho(%d, %d) out of range", n, p))
	}
	return 1 - float64(p-1)/float64(n-1)
}
