// Package data provides the synthetic datasets that stand in for CIFAR-10,
// CIFAR-100 and ImageNet in the reproduction. Each dataset is a seeded
// Gaussian-mixture classification problem: classes have random mean vectors
// and isotropic within-class noise, so class overlap (and therefore the
// difficulty of reaching a test-accuracy threshold) is controlled by the
// mean separation / noise ratio. The package also provides train/test
// splitting, per-worker sharding, and mini-batch sampling.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"partialreduce/internal/tensor"
)

// Dataset is a labelled classification dataset. Row i of X is example i with
// label Y[i] in [0, Classes).
type Dataset struct {
	X       *tensor.Matrix
	Y       []int
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// Dim returns the feature dimension.
func (d *Dataset) Dim() int { return d.X.Cols }

// Example returns feature row i (shared storage) and its label.
func (d *Dataset) Example(i int) (tensor.Vector, int) { return d.X.Row(i), d.Y[i] }

// MixtureConfig describes a Gaussian-mixture classification dataset.
type MixtureConfig struct {
	Classes    int     // number of classes (>= 2)
	Dim        int     // feature dimension
	Examples   int     // total examples to generate
	Separation float64 // distance scale between class means
	Noise      float64 // within-class standard deviation
	Seed       int64   // deterministic generation seed
}

// Validate reports whether the configuration is usable.
func (c MixtureConfig) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("data: need >= 2 classes, got %d", c.Classes)
	case c.Dim < 1:
		return fmt.Errorf("data: need dim >= 1, got %d", c.Dim)
	case c.Examples < c.Classes:
		return fmt.Errorf("data: need >= %d examples, got %d", c.Classes, c.Examples)
	case c.Separation <= 0 || c.Noise <= 0:
		return fmt.Errorf("data: separation and noise must be positive")
	}
	return nil
}

// GaussianMixture generates a dataset per cfg. Class means are drawn on a
// sphere of radius cfg.Separation; examples cycle through classes so every
// class has ⌈Examples/Classes⌉ or ⌊Examples/Classes⌋ members, then the rows
// are shuffled.
func GaussianMixture(cfg MixtureConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Class means are random directions scaled to cfg.Separation. The first
	// min(Classes, Dim) means are Gram-Schmidt orthogonalized so pairwise
	// class separation — and therefore the dataset's Bayes accuracy — is
	// consistent across seeds rather than at the mercy of two random means
	// landing close together.
	means := make([]tensor.Vector, cfg.Classes)
	for c := range means {
		m := tensor.NewVector(cfg.Dim)
		for {
			for j := range m {
				m[j] = rng.NormFloat64()
			}
			if c < cfg.Dim {
				for _, prev := range means[:c] {
					m.Axpy(-m.Dot(prev)/prev.Dot(prev), prev)
				}
			}
			if n := m.Norm2(); n > 1e-8 {
				m.Scale(cfg.Separation / n)
				break
			}
		}
		means[c] = m
	}

	d := &Dataset{
		X:       tensor.NewMatrix(cfg.Examples, cfg.Dim),
		Y:       make([]int, cfg.Examples),
		Classes: cfg.Classes,
	}
	for i := 0; i < cfg.Examples; i++ {
		c := i % cfg.Classes
		row := d.X.Row(i)
		for j := range row {
			row[j] = means[c][j] + float64(cfg.Noise*rng.NormFloat64())
		}
		d.Y[i] = c
	}
	d.Shuffle(rng)
	return d, nil
}

// Shuffle permutes the examples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	tmp := tensor.NewVector(d.Dim())
	rng.Shuffle(d.Len(), func(i, j int) {
		ri, rj := d.X.Row(i), d.X.Row(j)
		tmp.CopyFrom(ri)
		ri.CopyFrom(rj)
		rj.CopyFrom(tmp)
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Split partitions d into a training set with trainFrac of the examples and
// a test set with the remainder. Rows are referenced, not copied.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	n := d.Len()
	nt := int(math.Round(trainFrac * float64(n)))
	if nt < 1 {
		nt = 1
	}
	if nt > n-1 {
		nt = n - 1
	}
	train = d.slice(0, nt)
	test = d.slice(nt, n)
	return train, test
}

func (d *Dataset) slice(lo, hi int) *Dataset {
	return &Dataset{
		X:       tensor.MatrixFrom(hi-lo, d.Dim(), d.X.Data[lo*d.Dim():hi*d.Dim()]),
		Y:       d.Y[lo:hi],
		Classes: d.Classes,
	}
}

// Shard partitions d into n contiguous, near-equal shards (data-parallel
// sharding, one per worker). It panics if n < 1 or n > Len().
func (d *Dataset) Shard(n int) []*Dataset {
	if n < 1 || n > d.Len() {
		panic(fmt.Sprintf("data: cannot shard %d examples into %d shards", d.Len(), n))
	}
	shards := make([]*Dataset, n)
	per := d.Len() / n
	rem := d.Len() % n
	lo := 0
	for i := range shards {
		size := per
		if i < rem {
			size++
		}
		shards[i] = d.slice(lo, lo+size)
		lo += size
	}
	return shards
}

// CorruptLabels replaces frac of d's labels with uniformly random classes
// (deterministically from seed). Experiments corrupt only training shards:
// the label noise injects the irreducible gradient variance real image
// datasets have, which is what makes averaged (BSP) gradients statistically
// stronger than single stale (ASP) gradients near the accuracy threshold.
func (d *Dataset) CorruptLabels(frac float64, seed int64) {
	if frac <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range d.Y {
		if rng.Float64() < frac {
			d.Y[i] = rng.Intn(d.Classes)
		}
	}
}

// Batch holds a mini-batch referencing rows of the source dataset.
type Batch struct {
	X []tensor.Vector
	Y []int
}

// Sampler draws mini-batches uniformly with replacement from a dataset using
// its own RNG stream, so concurrent workers sample independently.
type Sampler struct {
	ds  *Dataset
	rng *rand.Rand
}

// NewSampler returns a sampler over ds seeded with seed.
func NewSampler(ds *Dataset, seed int64) *Sampler {
	return &Sampler{ds: ds, rng: rand.New(rand.NewSource(seed))}
}

// Sample fills and returns a batch of size m. The returned slices are reused
// across calls via b; pass nil to allocate.
func (s *Sampler) Sample(b *Batch, m int) *Batch {
	if b == nil {
		b = &Batch{}
	}
	b.X = b.X[:0]
	b.Y = b.Y[:0]
	for i := 0; i < m; i++ {
		idx := s.rng.Intn(s.ds.Len())
		x, y := s.ds.Example(idx)
		b.X = append(b.X, x)
		b.Y = append(b.Y, y)
	}
	return b
}

// Preset datasets standing in for the paper's benchmarks. Separation/noise
// are tuned so an MLP reaches the experiment thresholds in a few thousand
// updates, with enough class overlap that stale updates visibly slow
// convergence (the property the paper's statistical-efficiency metric needs).

// CIFAR10Sub returns the 10-class CIFAR-10 substitute. Separation 3.5 puts
// the mixture's Bayes accuracy near 0.95, so the paper's 90% threshold is
// reachable but not trivial.
func CIFAR10Sub(seed int64) (*Dataset, error) {
	return GaussianMixture(MixtureConfig{
		Classes: 10, Dim: 32, Examples: 6000,
		Separation: 3.5, Noise: 1.0, Seed: seed,
	})
}

// CIFAR100Sub returns the 100-class CIFAR-100 substitute. Separation 4.5
// keeps the mixture's ceiling comfortably above the 70% threshold the
// paper's CIFAR-100 experiments use.
func CIFAR100Sub(seed int64) (*Dataset, error) {
	return GaussianMixture(MixtureConfig{
		Classes: 100, Dim: 64, Examples: 12000,
		Separation: 4.5, Noise: 1.0, Seed: seed,
	})
}

// ImageNetSub returns the ImageNet substitute: a 300-class mixture, the
// largest workload in the suite. (The class count is scaled down from
// ImageNet's 1000 so a full Fig. 10/11 sweep stays tractable on one host;
// the workload keeps ImageNet's role — far more classes and examples than
// the CIFAR substitutes and a step-decay LR schedule.)
func ImageNetSub(seed int64) (*Dataset, error) {
	return GaussianMixture(MixtureConfig{
		Classes: 300, Dim: 96, Examples: 18000,
		Separation: 5.0, Noise: 1.0, Seed: seed,
	})
}
