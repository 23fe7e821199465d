// Package optim implements the optimizer used throughout the paper's
// evaluation: mini-batch SGD with Nesterov-free momentum, L2 weight decay,
// and a step-decay learning-rate schedule (the paper trains with lr 0.1,
// momentum 0.9, weight decay 1e-4, and for ImageNet decays the rate 10× every
// 20 epochs). A staleness-aware scaling hook supports the PS HETE baseline,
// which shrinks the learning rate for delayed gradients.
package optim

import (
	"fmt"

	"partialreduce/internal/tensor"
)

// Config describes an SGD optimizer.
type Config struct {
	LR          float64 // base learning rate
	Momentum    float64 // in [0,1)
	WeightDecay float64 // L2 coefficient applied to the gradient
	// Schedule optionally maps the update index to a multiplier on LR.
	// Nil means constant.
	Schedule Schedule
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.LR <= 0:
		return fmt.Errorf("optim: learning rate must be positive, got %v", c.LR)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("optim: momentum must be in [0,1), got %v", c.Momentum)
	case c.WeightDecay < 0:
		return fmt.Errorf("optim: weight decay must be non-negative, got %v", c.WeightDecay)
	}
	return nil
}

// Paper returns the paper's SGD hyperparameters (§5.1).
func Paper() Config {
	return Config{LR: 0.1, Momentum: 0.9, WeightDecay: 1e-4}
}

// Schedule maps an update index to a learning-rate multiplier.
type Schedule interface {
	Multiplier(step int) float64
}

// StepDecay multiplies the rate by Factor every Every steps, the paper's
// ImageNet schedule ("start from 0.1 and decay by 10 every 20 epochs").
type StepDecay struct {
	Every  int     // steps between decays (> 0)
	Factor float64 // per-decay multiplier, e.g. 0.1
}

// Multiplier implements Schedule.
func (s StepDecay) Multiplier(step int) float64 {
	if s.Every <= 0 {
		return 1
	}
	m := 1.0
	for k := s.Every; k <= step; k += s.Every {
		m *= s.Factor
	}
	return m
}

// SGD applies momentum SGD updates to one model replica. Each worker owns an
// SGD instance; the velocity buffer is worker-local state, as in PyTorch DDP.
type SGD struct {
	cfg      Config
	velocity tensor.Vector
	step     int
}

// NewSGD returns an optimizer for a parameter vector of length n. It panics
// if cfg is invalid.
func NewSGD(cfg Config, n int) *SGD {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &SGD{cfg: cfg, velocity: tensor.NewVector(n)}
}

// Step returns the number of updates applied so far.
func (o *SGD) Step() int { return o.step }

// LR returns the learning rate the next update will use.
func (o *SGD) LR() float64 {
	lr := o.cfg.LR
	if o.cfg.Schedule != nil {
		lr *= o.cfg.Schedule.Multiplier(o.step)
	}
	return lr
}

// Update applies one SGD step: v ← μv + (g + λw); w ← w − lr·v.
// Scale multiplies the effective learning rate for this single update; the
// PS HETE baseline passes its staleness penalty here, all other strategies
// pass 1.
func (o *SGD) Update(params, grad tensor.Vector, scale float64) {
	if len(params) != len(o.velocity) || len(grad) != len(o.velocity) {
		panic(fmt.Sprintf("optim: size mismatch params=%d grad=%d velocity=%d",
			len(params), len(grad), len(o.velocity)))
	}
	tensor.MomentumStep(params, o.velocity, grad, o.cfg.Momentum, o.cfg.WeightDecay, o.LR()*scale)
	o.step++
}

// UpdateRange is Update at scale 1 on params[lo:hi] alone, counted as one
// step: the element update is position-independent, so the ranges of one
// step, run by whoever holds them, leave the bits of one Update. Velocity
// outside the updated ranges is not kept, so State exports it stale; a
// caller that shards the update across replicas (the live All-Reduce's
// collective.AllReduceApply) must not hand the velocity on.
func (o *SGD) UpdateRange(params, grad tensor.Vector, lo, hi int) {
	if len(params) != len(o.velocity) || len(grad) != len(o.velocity) {
		panic(fmt.Sprintf("optim: size mismatch params=%d grad=%d velocity=%d",
			len(params), len(grad), len(o.velocity)))
	}
	tensor.MomentumStep(params[lo:hi], o.velocity[lo:hi], grad[lo:hi], o.cfg.Momentum, o.cfg.WeightDecay, o.LR())
	o.step++
}

// UpdateFactored is Update for a gradient that was never materialized: the
// concatenation of the row-major outer products blocks, each element produced
// where Update would have read it, so the step streams parameters and velocity
// only, one call per block. The bits are those of Update on the
// Matrix.SetOuter(X, Y) blocks: both run tensor's one element update.
func (o *SGD) UpdateFactored(params tensor.Vector, blocks []tensor.Outer, scale float64) {
	n := 0
	for _, f := range blocks {
		n += len(f.X) * len(f.Y)
	}
	if len(params) != len(o.velocity) || n != len(o.velocity) {
		panic(fmt.Sprintf("optim: size mismatch params=%d factored grad=%d velocity=%d",
			len(params), n, len(o.velocity)))
	}
	mu, wd, lr := o.cfg.Momentum, o.cfg.WeightDecay, o.LR()*scale
	off := 0
	for _, f := range blocks {
		end := off + len(f.X)*len(f.Y)
		tensor.MomentumStepOuter(params[off:end], o.velocity[off:end], f.X, f.Y, mu, wd, lr)
		off = end
	}
	o.step++
}

// Clone returns an independent copy (velocity included), used when a worker
// replica is forked in tests.
func (o *SGD) Clone() *SGD {
	return &SGD{cfg: o.cfg, velocity: o.velocity.Clone(), step: o.step}
}

// State returns a copy of the optimizer's velocity buffer and its step
// counter, for checkpointing.
func (o *SGD) State() (velocity tensor.Vector, step int) {
	return o.velocity.Clone(), o.step
}

// Restore replaces the optimizer's velocity and step counter from a
// checkpoint. A nil velocity zeroes the buffer.
func (o *SGD) Restore(velocity tensor.Vector, step int) error {
	if step < 0 {
		return fmt.Errorf("optim: negative step %d", step)
	}
	if velocity == nil {
		o.velocity.Zero()
	} else {
		if len(velocity) != len(o.velocity) {
			return fmt.Errorf("optim: velocity length %d, want %d", len(velocity), len(o.velocity))
		}
		o.velocity.CopyFrom(velocity)
	}
	o.step = step
	return nil
}
