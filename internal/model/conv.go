package model

import (
	"fmt"
	"math/rand"

	"partialreduce/internal/data"
	"partialreduce/internal/tensor"
)

// ConvSpec describes a small convolutional classifier: a 1-D convolution
// over the feature vector (treated as a length-Inputs sequence), ReLU,
// global average pooling per channel, and a dense softmax head. It is the
// CNN-shaped proxy model — weight sharing, locality, pooling — for
// experiments that want the paper's model family rather than an MLP.
type ConvSpec struct {
	Inputs   int // input sequence length
	Channels int // convolution output channels
	Kernel   int // kernel width (valid padding, stride 1)
	Classes  int
}

// Validate reports whether the spec is usable.
func (s ConvSpec) Validate() error {
	switch {
	case s.Inputs < 1 || s.Channels < 1 || s.Classes < 2:
		return fmt.Errorf("model: invalid conv spec %+v", s)
	case s.Kernel < 1 || s.Kernel > s.Inputs:
		return fmt.Errorf("model: kernel %d outside [1,%d]", s.Kernel, s.Inputs)
	}
	return nil
}

// Build constructs the model with Glorot initialization from seed.
func (s ConvSpec) Build(seed int64) Model { return NewConvNet(s, seed) }

// ConvNet implements Model for ConvSpec. Parameter layout in the flat
// vector: conv weights (Channels×Kernel), conv biases (Channels), dense
// weights (Classes×Channels), dense biases (Classes).
type ConvNet struct {
	spec ConvSpec
	flat tensor.Vector

	convW  *tensor.Matrix // Channels × Kernel view
	convB  tensor.Vector
	denseW *tensor.Matrix // Classes × Channels view
	denseB tensor.Vector

	// scratch
	fmap   *tensor.Matrix // Channels × T pre-activations
	pooled tensor.Vector  // Channels
	logits tensor.Vector
	probs  tensor.Vector
	dPool  tensor.Vector
}

// NewConvNet builds a ConvNet per spec, seeded by seed. It panics on an
// invalid spec (as Spec.Build does for the MLP).
func NewConvNet(spec ConvSpec, seed int64) *ConvNet {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	c, k, cls := spec.Channels, spec.Kernel, spec.Classes
	total := c*k + c + cls*c + cls
	m := &ConvNet{spec: spec, flat: tensor.NewVector(total)}
	m.bindViews()

	rng := rand.New(rand.NewSource(seed))
	m.convW.FillGlorot(rng, k, c)
	m.denseW.FillGlorot(rng, c, cls)
	m.initScratch()
	return m
}

// bindViews points the layer views at flat; after the first call the two
// matrices are re-pointed in place, which allocates nothing.
func (m *ConvNet) bindViews() {
	c, k, cls := m.spec.Channels, m.spec.Kernel, m.spec.Classes
	if m.convW == nil {
		m.convW = &tensor.Matrix{Rows: c, Cols: k}
		m.denseW = &tensor.Matrix{Rows: cls, Cols: c}
	}
	off := 0
	m.convW.Data = m.flat[off : off+c*k]
	off += c * k
	m.convB = m.flat[off : off+c]
	off += c
	m.denseW.Data = m.flat[off : off+cls*c]
	off += cls * c
	m.denseB = m.flat[off : off+cls]
}

func (m *ConvNet) initScratch() {
	t := m.timeSteps()
	m.fmap = tensor.NewMatrix(m.spec.Channels, t)
	m.pooled = tensor.NewVector(m.spec.Channels)
	m.logits = tensor.NewVector(m.spec.Classes)
	m.probs = tensor.NewVector(m.spec.Classes)
	m.dPool = tensor.NewVector(m.spec.Channels)
}

func (m *ConvNet) timeSteps() int { return m.spec.Inputs - m.spec.Kernel + 1 }

// Params implements Model.
func (m *ConvNet) Params() tensor.Vector { return m.flat }

// SetParams implements Model.
func (m *ConvNet) SetParams(p tensor.Vector) { m.flat.CopyFrom(p) }

// SwapParams implements Model.
func (m *ConvNet) SwapParams(p tensor.Vector) tensor.Vector {
	if len(p) != len(m.flat) {
		panic(fmt.Sprintf("model: SwapParams buffer %d, want %d", len(p), len(m.flat)))
	}
	old := m.flat
	m.flat = p
	m.bindViews()
	return old
}

// NumParams implements Model.
func (m *ConvNet) NumParams() int { return len(m.flat) }

// Clone implements Model.
func (m *ConvNet) Clone() Model {
	c := &ConvNet{spec: m.spec, flat: m.flat.Clone()}
	c.bindViews()
	c.initScratch()
	return c
}

// forward computes the logits for x, leaving pre-activations in fmap and
// pooled activations in pooled.
func (m *ConvNet) forward(x tensor.Vector) tensor.Vector {
	t := m.timeSteps()
	invT := 1 / float64(t)
	for c := 0; c < m.spec.Channels; c++ {
		w := m.convW.Row(c)
		b := m.convB[c]
		row := m.fmap.Row(c)
		var pool float64
		for i := 0; i < t; i++ {
			s := b
			for k, wk := range w {
				s += float64(wk * x[i+k])
			}
			row[i] = s
			if s > 0 { // ReLU folded into pooling
				pool += s
			}
		}
		m.pooled[c] = pool * invT
	}
	m.denseW.MulVec(m.logits, m.pooled)
	m.logits.Add(m.denseB)
	return m.logits
}

// Predict implements Model.
func (m *ConvNet) Predict(x tensor.Vector) int { return m.forward(x).ArgMax() }

// Loss implements Model.
func (m *ConvNet) Loss(b *data.Batch) float64 {
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

// Gradient implements Model.
func (m *ConvNet) Gradient(dst tensor.Vector, b *data.Batch) float64 {
	if len(dst) != len(m.flat) {
		panic(fmt.Sprintf("model: gradient buffer %d, want %d", len(dst), len(m.flat)))
	}
	dst.Zero()
	if len(b.X) == 0 {
		return 0
	}
	c, k, cls := m.spec.Channels, m.spec.Kernel, m.spec.Classes
	off := 0
	gConvW := tensor.MatrixFrom(c, k, dst[off:off+c*k])
	off += c * k
	gConvB := dst[off : off+c]
	off += c
	gDenseW := tensor.MatrixFrom(cls, c, dst[off:off+cls*c])
	off += cls * c
	gDenseB := dst[off : off+cls]

	t := m.timeSteps()
	invT := 1 / float64(t)
	var totalLoss float64
	for n, x := range b.X {
		logits := m.forward(x)
		totalLoss += tensor.LogSumExp(logits) - logits[b.Y[n]]

		tensor.Softmax(m.probs, logits)
		m.probs[b.Y[n]] -= 1 // dLogits

		// Dense head.
		gDenseW.AddOuter(1, m.probs, m.pooled)
		gDenseB.Add(m.probs)
		m.denseW.MulVecT(m.dPool, m.probs)

		// Through pooling and ReLU into the convolution.
		for ch := 0; ch < c; ch++ {
			d := float64(m.dPool[ch] * invT)
			if d == 0 {
				continue
			}
			row := m.fmap.Row(ch)
			gw := gConvW.Row(ch)
			var db float64
			for i := 0; i < t; i++ {
				if row[i] <= 0 {
					continue
				}
				db += d
				for kk := 0; kk < k; kk++ {
					gw[kk] += float64(d * x[i+kk])
				}
			}
			gConvB[ch] += db
		}
	}
	dst.Scale(1 / float64(len(b.X)))
	return totalLoss / float64(len(b.X))
}
