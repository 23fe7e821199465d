package baselines

import (
	"fmt"
	"sort"

	"partialreduce/internal/cluster"
	"partialreduce/internal/engine"
	"partialreduce/internal/metrics"
	"partialreduce/internal/optim"
	"partialreduce/internal/tensor"
)

// psServer is the sharded parameter-server state: one global model updated
// by one optimizer, plus a version counter for staleness accounting.
type psServer struct {
	params  tensor.Vector
	opt     *optim.SGD
	version int
}

func newPSServer(c *cluster.Cluster) *psServer {
	return &psServer{
		params: c.Init.Clone(),
		opt:    optim.NewSGD(c.Cfg.Optimizer, len(c.Init)),
	}
}

// PSBSP is bulk-synchronous parameter-server training: every round all
// workers push gradients, the server applies the averaged update, and all
// workers pull the new model. Hardware-wise it behaves like All-Reduce with
// the (slightly slower) PS exchange cost.
type PSBSP struct{}

// NewPSBSP returns the PS BSP baseline.
func NewPSBSP() *PSBSP { return &PSBSP{} }

// Name implements cluster.Strategy.
func (*PSBSP) Name() string { return "PS BSP" }

// Run implements cluster.Strategy.
func (*PSBSP) Run(c *cluster.Cluster) (*metrics.Result, error) {
	srv := newPSServer(c)
	c.EvalOverride = func() float64 { return c.EvalParams(srv.params) }
	avg := tensor.NewVector(len(c.Init))
	weights := engine.UniformWeights(c.Cfg.N)
	grads := make([]tensor.Vector, c.Cfg.N)
	machine := engine.NewMachine(c.Cfg.N)

	var round func()
	round = func() {
		var maxDt float64
		for _, w := range c.Workers {
			machine.To(w.ID, engine.StateCompute)
			if dt := c.ComputeTime(w); dt > maxDt {
				maxDt = dt
			}
		}
		dur := maxDt + c.PSTimeMax()
		c.ChargeExchange(c.Cfg.N) // every worker pushes and pulls
		c.Eng.After(dur, func() {
			for i, w := range c.Workers {
				machine.To(w.ID, engine.StateReduce)
				grads[i], _ = c.GradientAtCurrent(w)
			}
			tensor.WeightedAverage(avg, weights, grads)
			srv.opt.Update(srv.params, avg, 1)
			srv.version++
			for _, w := range c.Workers {
				machine.To(w.ID, engine.StateApply)
				w.Params().CopyFrom(srv.params)
				w.Iter++
			}
			c.RecordUpdate()
			if !c.Eng.Stopped() {
				round()
			}
		})
	}
	c.Eng.At(0, round)
	c.Eng.Run()
	return c.Finish(), nil
}

// PSAsync implements the asynchronous parameter-server baselines. Each
// worker loops independently: pull the global model, compute a gradient,
// push it; the server applies it immediately. Staleness is real — the model
// a gradient was computed on may be many versions behind by the time it
// lands — which is exactly why ASP needs more updates to converge (Table 1).
// With Hete set, the server scales each update's learning rate by
// 1/(staleness+1), Jiang et al.'s heterogeneity-aware rule [20].
type PSAsync struct {
	Hete bool
}

// NewPSASP returns the PS ASP baseline.
func NewPSASP() *PSAsync { return &PSAsync{} }

// NewPSHETE returns the staleness-aware PS HETE baseline.
func NewPSHETE() *PSAsync { return &PSAsync{Hete: true} }

// Name implements cluster.Strategy.
func (p *PSAsync) Name() string {
	if p.Hete {
		return "PS HETE"
	}
	return "PS ASP"
}

// Run implements cluster.Strategy.
func (p *PSAsync) Run(c *cluster.Cluster) (*metrics.Result, error) {
	srv := newPSServer(c)
	c.EvalOverride = func() float64 { return c.EvalParams(srv.params) }
	pulled := make([]int, c.Cfg.N) // server version each worker last pulled
	machine := engine.NewMachine(c.Cfg.N)

	var start func(w *cluster.Worker)
	start = func(w *cluster.Worker) {
		machine.To(w.ID, engine.StateCompute)
		c.Snapshot(w)
		c.Eng.After(c.ComputeTime(w), func() {
			grad, _ := c.Gradient(w) // at the pulled snapshot
			machine.To(w.ID, engine.StateReduce)
			c.ChargeExchange(1)
			c.Eng.After(c.PSTime(w.ID), func() {
				scale := 1.0
				if p.Hete {
					staleness := srv.version - pulled[w.ID]
					scale = 1 / float64(staleness+1)
				}
				machine.To(w.ID, engine.StateApply)
				srv.opt.Update(srv.params, grad, scale)
				srv.version++
				w.Params().CopyFrom(srv.params) // pull
				pulled[w.ID] = srv.version
				w.Iter++
				c.RecordUpdate()
				if !c.Eng.Stopped() {
					start(w)
				}
			})
		})
	}
	for _, w := range c.Workers {
		w := w
		c.Eng.At(0, func() { start(w) })
	}
	c.Eng.Run()
	return c.Finish(), nil
}

// PSBK is synchronous SGD with backup workers [8]: every round all N workers
// race, the server aggregates only the first N−Backup gradients, and the
// stragglers' work is dropped (they adopt the new model and move on). The
// round advances at the pace of the (N−Backup)-th fastest worker, but the
// dropped workers contribute nothing — the resource-utilization dilemma
// §5.2.1 contrasts with P-Reduce.
type PSBK struct {
	Backup int // number of backup (droppable) workers
}

// NewPSBK returns the backup-worker baseline with b backups.
func NewPSBK(b int) *PSBK { return &PSBK{Backup: b} }

// Name implements cluster.Strategy.
func (p *PSBK) Name() string { return fmt.Sprintf("PS BK-%d", p.Backup) }

// Run implements cluster.Strategy.
func (p *PSBK) Run(c *cluster.Cluster) (*metrics.Result, error) {
	if p.Backup < 0 || p.Backup >= c.Cfg.N {
		return nil, fmt.Errorf("baselines: %d backup workers need 0 <= b < N=%d", p.Backup, c.Cfg.N)
	}
	srv := newPSServer(c)
	c.EvalOverride = func() float64 { return c.EvalParams(srv.params) }
	k := c.Cfg.N - p.Backup
	avg := tensor.NewVector(len(c.Init))
	weights := engine.UniformWeights(k)
	grads := make([]tensor.Vector, k)
	machine := engine.NewMachine(c.Cfg.N)

	type arrival struct {
		dt float64
		w  *cluster.Worker
	}
	arrivals := make([]arrival, c.Cfg.N)

	var round func()
	round = func() {
		for i, w := range c.Workers {
			machine.To(w.ID, engine.StateCompute)
			arrivals[i] = arrival{dt: c.ComputeTime(w), w: w}
		}
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].dt < arrivals[j].dt })
		dur := arrivals[k-1].dt + c.PSTimeMax()
		c.ChargeExchange(c.Cfg.N) // k gradients land, everyone pulls
		c.Eng.After(dur, func() {
			for _, w := range c.Workers {
				machine.To(w.ID, engine.StateReduce)
			}
			for i, a := range arrivals[:k] { // stragglers' gradients dropped
				grads[i], _ = c.GradientAtCurrent(a.w)
			}
			tensor.WeightedAverage(avg, weights, grads)
			srv.opt.Update(srv.params, avg, 1)
			srv.version++
			for _, w := range c.Workers {
				machine.To(w.ID, engine.StateApply)
				w.Params().CopyFrom(srv.params)
				w.Iter++
			}
			c.RecordUpdate()
			if !c.Eng.Stopped() {
				round()
			}
		})
	}
	c.Eng.At(0, round)
	c.Eng.Run()
	return c.Finish(), nil
}
