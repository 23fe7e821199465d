// Package model provides the trainable models for the reproduction and the
// workload profiles that stand in for the paper's CNNs.
//
// Models expose their parameters as a single flat tensor.Vector so that
// collectives (all-reduce, partial reduce, PS push/pull) operate on one
// contiguous buffer, exactly as gradient buckets do in a real DDP stack.
// Layer weight matrices are views into that flat vector: reading Params()
// and writing through SetParams copy nothing structural, and SwapParams
// re-points the views at another buffer without copying at all.
//
// The statistical side of every experiment runs real stochastic gradient
// descent on these models; the hardware side (per-batch seconds, bytes on
// the wire) comes from Profile, which carries the true parameter counts of
// the paper's CNNs (ResNet-18/34, VGG-16/19, DenseNet-121).
package model

import (
	"fmt"
	"math/rand"

	"partialreduce/internal/data"
	"partialreduce/internal/tensor"
)

// Model is a trainable classifier over flat parameters.
type Model interface {
	// Params returns the flat parameter vector. The returned slice is the
	// live storage: mutating it mutates the model.
	Params() tensor.Vector
	// SetParams copies p into the model's parameters.
	SetParams(p tensor.Vector)
	// SwapParams makes p (len NumParams) the live parameter storage without
	// copying or allocating and returns the previous storage, which the
	// model no longer references: a model average reduced out of place from
	// Params() into a spare buffer is installed by trading the two. It
	// panics on a length mismatch.
	SwapParams(p tensor.Vector) tensor.Vector
	// NumParams returns the trainable parameter count.
	NumParams() int
	// Gradient computes the average gradient of the cross-entropy loss over
	// the batch into dst (len NumParams) and returns the average loss.
	Gradient(dst tensor.Vector, b *data.Batch) float64
	// Loss returns the average cross-entropy loss over the batch.
	Loss(b *data.Batch) float64
	// Predict returns the predicted class for x.
	Predict(x tensor.Vector) int
	// Clone returns an independent deep copy.
	Clone() Model
}

// Accuracy returns the fraction of ds classified correctly by m.
func Accuracy(m Model, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Example(i)
		if m.Predict(x) == y {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// Builder constructs a model from an initialization seed. Spec (the MLP)
// implements it; cluster and live configs accept any Builder.
type Builder interface {
	Build(seed int64) Model
}

// Spec constructs a model; it is how experiments describe the proxy model
// independent of its random initialization.
type Spec struct {
	Inputs  int   // feature dimension
	Hidden  []int // hidden layer widths; empty means softmax regression
	Classes int
}

// Build constructs the model with Glorot initialization from seed.
func (s Spec) Build(seed int64) Model {
	return NewMLP(s, seed)
}

// MLP is a fully-connected network with ReLU hidden activations and a
// softmax cross-entropy output. Hidden may be empty, giving multinomial
// logistic regression.
type MLP struct {
	spec  Spec
	flat  tensor.Vector // all parameters, contiguous
	ws    []*tensor.Matrix
	bs    []tensor.Vector
	sizes []int // layer widths including input and output
	// gws/gbs mirror ws/bs over the last Gradient destination (identified
	// by its first element): a training loop passes the same buffer every
	// step, so the views are bound once, not per call.
	gws   []*tensor.Matrix
	gbs   []tensor.Vector
	gbase *float64
	// scratch buffers reused across Gradient calls
	acts    []tensor.Vector // activations per layer (post-nonlinearity)
	deltas  []tensor.Vector // backprop deltas per layer
	factors []tensor.Outer  // the one-example gradient as outer products, see GradientFactors
	probs   tensor.Vector
}

// NewMLP builds an MLP per spec with Glorot-uniform weights seeded by seed.
func NewMLP(spec Spec, seed int64) *MLP {
	if spec.Inputs < 1 || spec.Classes < 2 {
		panic(fmt.Sprintf("model: invalid spec %+v", spec))
	}
	sizes := append([]int{spec.Inputs}, spec.Hidden...)
	sizes = append(sizes, spec.Classes)

	total := 0
	for l := 0; l+1 < len(sizes); l++ {
		total += sizes[l+1]*sizes[l] + sizes[l+1]
	}
	m := &MLP{spec: spec, flat: tensor.NewVector(total), sizes: sizes}
	m.ws, m.bs = m.bindViews(nil, nil, m.flat)

	rng := rand.New(rand.NewSource(seed))
	for l, w := range m.ws {
		w.FillGlorot(rng, sizes[l], sizes[l+1])
	}
	m.initScratch()
	return m
}

// bindViews points per-layer weight and bias views at flat, which is laid out
// [W₀ b₀ W₁ b₁ …] for parameters and gradients alike. Nil views are
// allocated; existing ones are re-pointed in place, which allocates nothing.
func (m *MLP) bindViews(ws []*tensor.Matrix, bs []tensor.Vector, flat tensor.Vector) ([]*tensor.Matrix, []tensor.Vector) {
	if ws == nil {
		ws = make([]*tensor.Matrix, len(m.sizes)-1)
		bs = make([]tensor.Vector, len(m.sizes)-1)
		for l := range ws {
			ws[l] = &tensor.Matrix{Rows: m.sizes[l+1], Cols: m.sizes[l]}
		}
	}
	off := 0
	for l, w := range ws {
		w.Data = flat[off : off+w.Rows*w.Cols]
		off += w.Rows * w.Cols
		bs[l] = flat[off : off+w.Rows]
		off += w.Rows
	}
	return ws, bs
}

func (m *MLP) initScratch() {
	m.acts = make([]tensor.Vector, len(m.sizes))
	m.deltas = make([]tensor.Vector, len(m.sizes))
	for l, sz := range m.sizes {
		m.acts[l] = tensor.NewVector(sz)
		m.deltas[l] = tensor.NewVector(sz)
	}
	one := tensor.Vector{1}
	for l := range m.ws { // W's gradient is δ·aᵀ; b's is δ, as the 1 × len(δ) product 1·δᵀ
		d := m.deltas[l+1]
		m.factors = append(m.factors, tensor.Outer{X: d, Y: m.acts[l]}, tensor.Outer{X: one, Y: d})
	}
	m.probs = tensor.NewVector(m.spec.Classes)
}

// Params implements Model.
func (m *MLP) Params() tensor.Vector { return m.flat }

// SetParams implements Model.
func (m *MLP) SetParams(p tensor.Vector) { m.flat.CopyFrom(p) }

// SwapParams implements Model.
func (m *MLP) SwapParams(p tensor.Vector) tensor.Vector {
	if len(p) != len(m.flat) {
		panic(fmt.Sprintf("model: SwapParams buffer %d, want %d", len(p), len(m.flat)))
	}
	old := m.flat
	m.flat = p
	m.bindViews(m.ws, m.bs, p)
	return old
}

// NumParams implements Model.
func (m *MLP) NumParams() int { return len(m.flat) }

// Clone implements Model.
func (m *MLP) Clone() Model {
	c := &MLP{spec: m.spec, flat: m.flat.Clone(), sizes: m.sizes}
	c.ws, c.bs = c.bindViews(nil, nil, c.flat)
	c.initScratch()
	return c
}

// forward runs the network on x, leaving logits in m.acts[last] and each
// layer's post-activation in m.acts.
func (m *MLP) forward(x tensor.Vector) tensor.Vector {
	m.acts[0].CopyFrom(x)
	last := len(m.sizes) - 1
	for l := 0; l < last; l++ {
		out := m.acts[l+1]
		m.ws[l].MulVec(out, m.acts[l])
		out.Add(m.bs[l])
		if l+1 < last { // ReLU on hidden layers only
			for i, v := range out {
				if v < 0 {
					out[i] = 0
				}
			}
		}
	}
	return m.acts[last]
}

// Predict implements Model.
func (m *MLP) Predict(x tensor.Vector) int {
	return m.forward(x).ArgMax()
}

// Loss implements Model.
func (m *MLP) Loss(b *data.Batch) float64 {
	if len(b.X) == 0 {
		return 0
	}
	var total float64
	for i, x := range b.X {
		logits := m.forward(x)
		total += tensor.LogSumExp(logits) - logits[b.Y[i]]
	}
	return total / float64(len(b.X))
}

// Gradient implements Model. dst receives the average gradient; the average
// loss is returned. dst is never pre-zeroed: the first example's gradient is
// written (0 + v, so zero signs match a zeroed accumulator), later ones
// accumulate, and the 1/B scaling is skipped for B = 1, where x·1.0 is exact.
func (m *MLP) Gradient(dst tensor.Vector, b *data.Batch) float64 {
	if len(dst) != len(m.flat) {
		panic(fmt.Sprintf("model: gradient buffer %d, want %d", len(dst), len(m.flat)))
	}
	if len(b.X) == 0 {
		dst.Zero()
		return 0
	}
	if m.gbase != &dst[0] {
		m.gws, m.gbs = m.bindViews(m.gws, m.gbs, dst)
		m.gbase = &dst[0]
	}

	var totalLoss float64
	for i, x := range b.X {
		totalLoss += m.backprop(x, b.Y[i])
		for l, gw := range m.gws {
			d, a := m.deltas[l+1], m.acts[l]
			if i == 0 {
				gw.SetOuter(d, a)
				for j, v := range d {
					m.gbs[l][j] = 0 + v
				}
			} else {
				gw.AddOuter(1, d, a)
				m.gbs[l].Add(d)
			}
		}
	}
	if len(b.X) > 1 {
		dst.Scale(1 / float64(len(b.X)))
	}
	return totalLoss / float64(len(b.X))
}

// GradientFactors is Gradient for a one-example batch with nothing
// materialized: the flat gradient [W₀ b₀ W₁ b₁ …] is the concatenation of the
// returned row-major outer products, two per layer. The factors are the
// model's own scratch, valid until its next forward or backward pass.
func (m *MLP) GradientFactors(b *data.Batch) []tensor.Outer {
	if len(b.X) != 1 {
		panic(fmt.Sprintf("model: GradientFactors on a batch of %d, want 1", len(b.X)))
	}
	m.backprop(b.X[0], b.Y[0])
	return m.factors
}

// backprop runs x forward and the cross-entropy delta of label y back through
// every layer — all from the current weights, none of which it writes — and
// returns the example's loss. It leaves layer l's output delta in
// m.deltas[l+1] and its input in m.acts[l], the two factors of its gradient.
func (m *MLP) backprop(x tensor.Vector, y int) float64 {
	last := len(m.sizes) - 1
	logits := m.forward(x)
	loss := tensor.LogSumExp(logits) - logits[y]

	// Output delta: softmax(logits) - onehot(y).
	tensor.Softmax(m.probs, logits)
	d := m.deltas[last]
	d.CopyFrom(m.probs)
	d[y] -= 1

	for l := last - 1; l > 0; l-- {
		m.ws[l].MulVecT(m.deltas[l], m.deltas[l+1])
		// ReLU derivative on the hidden activation.
		for j, a := range m.acts[l] {
			if a <= 0 {
				m.deltas[l][j] = 0
			}
		}
	}
	return loss
}
