package engine_test

import (
	"math"
	"testing"

	"partialreduce/internal/collective"
	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/engine"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
	"partialreduce/internal/tensor"
	"partialreduce/internal/testutil"
	"partialreduce/internal/transport"
)

// abortControl scripts the control plane of one survivor: the first ready
// signal is answered with a two-member group, every later one with a solo
// release. It snapshots the model at each signal and records what the worker
// reported in between.
type abortControl struct {
	m        model.Model
	group    controller.Group
	op       uint32
	atSignal []tensor.Vector
	dead     []int
}

func (c *abortControl) Signal(int) (engine.Directive, error) {
	c.atSignal = append(c.atSignal, c.m.Params().Clone())
	if len(c.atSignal) == 1 {
		return engine.Directive{Group: c.group, OpID: c.op}, nil
	}
	return engine.Directive{Skip: true}, nil
}
func (c *abortControl) ReportDeath(dead int, _ controller.Group, _ uint32) error {
	c.dead = append(c.dead, dead)
	return nil
}
func (c *abortControl) ReportStuck(controller.Group, uint32) error { return nil }
func (c *abortControl) Finished() error                            { return nil }

// TestAbortedGroupLeavesModelUntouched is the §4 rollback guarantee, which
// the engine used to provide by copying the model aside before every group
// and restoring it on failure: when a group's collective dies under a
// survivor — here the peer crashes nine segments into reduce-scatter, after
// the survivor has already reduced five into its spare buffer — the model the
// survivor re-signals with equals its pre-group model bit for bit.
func TestAbortedGroupLeavesModelUntouched(t *testing.T) {
	const seg, op = 50, 1
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: 4, Dim: 12, Examples: 64, Separation: 3.2, Noise: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mems := transport.NewMem(2)
	eps, err := transport.NewFaultyWorld([]transport.Transport{mems[0], mems[1]},
		transport.FaultPlan{CrashAfterSends: map[int]int{1: 8}})
	if err != nil {
		t.Fatal(err)
	}
	group := controller.Group{Members: []int{0, 1}, Weights: []float64{0.5, 0.5}}
	m := model.Spec{Inputs: 12, Hidden: []int{64}, Classes: 4}.Build(3) // 1092 parameters: 11 segments a chunk

	// The doomed peer runs the same collective until its transport kills it.
	peerDone := make(chan error, 1)
	x := m.Params().Clone()
	go func() {
		peerDone <- collective.ReduceInto(testutil.Segmented{Transport: eps[1], Elems: seg}, group.Members, op,
			make([]float64, len(x)), x, 0.5, 1, collective.Options{})
	}()

	var stats collective.OpStats
	optCfg := optim.Config{LR: 0.05, Momentum: 0.9}
	ctl := &abortControl{m: m, group: group, op: op}
	out, err := engine.RunPReduceWorker(&engine.LiveWorker{
		Trans:     testutil.Segmented{Transport: eps[0], Elems: seg},
		Copts:     collective.Options{Stats: &stats},
		Model:     m,
		Opt:       optim.NewSGD(optCfg, m.NumParams()),
		Sampler:   data.NewSampler(ds, 3),
		Init:      m.Params().Clone(),
		Iters:     1,
		BatchSize: 4,
	}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if perr := <-peerDone; !transport.IsFailure(perr) {
		t.Fatalf("peer: want its injected crash, got %v", perr)
	}
	if out.Groups != 0 || len(ctl.dead) != 1 || ctl.dead[0] != 1 || len(ctl.atSignal) != 2 {
		t.Fatalf("groups=%d reported=%v signals=%d: want a failed group, rank 1 reported dead, one re-signal",
			out.Groups, ctl.dead, len(ctl.atSignal))
	}
	if stats.BytesRecv == 0 || stats.Ops != 0 {
		t.Fatalf("stats %v: the collective did not die mid reduce-scatter", stats)
	}
	before, after := ctl.atSignal[0], ctl.atSignal[1]
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("param %d changed across the aborted group: %x -> %x", i, before[i], after[i])
		}
	}
}
