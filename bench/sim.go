package main

import (
	"fmt"
	"runtime"
	"time"

	preduce "partialreduce"
	"partialreduce/internal/cluster"
	"partialreduce/internal/data"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/trace"
)

// simJob runs reps of the simulator workload: the paper's synthetic
// GPU-sharing environment (HL=3) on 32 workers with the VGG-19 cost profile,
// training a softmax regression so small that the event engine, the cluster
// substrate and the controller are the cost rather than SGD.
type simJob struct {
	w                  workload
	seed               int64
	updatesP, updatesA int
	train, test        *data.Dataset
}

// newSimJob sizes the reps. The traced pass runs every rep — observed and
// traced alike, so their rates still pair — at a quarter of the end-to-end
// size: a traced P-Reduce rep records about 8 events per step, and a
// full-size rep would need a 100 MB ring.
func newSimJob(w workload, seed int64, smoke, tracedPass bool) (*simJob, error) {
	train, test, err := dataset(w, seed)
	if err != nil {
		return nil, err
	}
	j := &simJob{w: w, seed: seed, updatesP: w.simUpdatesP, updatesA: w.simUpdatesA, train: train, test: test}
	if tracedPass {
		j.updatesP, j.updatesA = j.updatesP/4, j.updatesA/4
	}
	if smoke {
		j.updatesP, j.updatesA = 600, 60
	}
	return j, nil
}

// config builds a fresh cluster config: the heterogeneity model owns RNG
// streams, so reusing one across reps would change the schedule.
func (j *simJob) config(v variant, traced bool) cluster.Config {
	updates := j.updatesP
	if v == vAllReduce {
		updates = j.updatesA
	}
	cfg := cluster.Config{
		N:    simN,
		Spec: j.w.spec, Seed: j.seed,
		Train: j.train, Test: j.test,
		BatchSize: 1,
		Optimizer: optimizer(),
		Profile:   model.VGG19,
		Hetero:    preduce.GPUSharing(simN, 3, model.VGG19.BatchCompute, 0.15, j.seed+1),
		Net:       preduce.DefaultNetwork(),
		// Never stop early, evaluate once at the very end: a rep is a fixed
		// number of updates.
		Threshold:  1.0,
		EvalEvery:  updates,
		MaxUpdates: updates,
	}
	if traced {
		cfg.TraceCap = 1 << 19
	}
	return cfg
}

func (j *simJob) strategy(v variant) preduce.Strategy {
	if v == vAllReduce {
		return preduce.NewAllReduce()
	}
	return preduce.NewPReduce(preduce.PReduceConfig{P: liveP, Weighting: preduce.Constant})
}

func (j *simJob) rep(v variant, mode repMode) (repOut, error) {
	cfg := j.config(v, mode == modeTraced)
	strategy := j.strategy(v)

	runtime.GC()
	var heap heapMark
	if mode == modeObserved {
		heap = markHeap()
	}

	var res *metrics.Result
	var events []trace.Event
	var err error
	start := time.Now()
	if mode == modeTraced {
		// preduce.Simulate is exactly these two calls; spelling them out is
		// the only way to reach the cluster's tracer afterwards.
		var c *cluster.Cluster
		if c, err = cluster.New(cfg, strategy.Name()); err == nil {
			res, err = strategy.Run(c)
		}
		if err == nil {
			if d := c.Tracer.Dropped(); d > 0 {
				err = fmt.Errorf("trace ring wrapped: %d events dropped", d)
			}
			events = c.Tracer.Events()
		}
	} else {
		res, err = preduce.Simulate(cfg, strategy)
	}
	wall := time.Since(start)
	if err != nil {
		return repOut{}, err
	}

	group := liveP
	if v == vAllReduce {
		group = simN
	}
	if res.Updates != cfg.MaxUpdates {
		return repOut{}, fmt.Errorf("sim stopped after %d of %d updates", res.Updates, cfg.MaxUpdates)
	}
	out := repOut{
		steps:       int64(res.Updates) * int64(group),
		wall:        wall,
		memberships: int64(res.Updates) * int64(group),
		comms: commCounts{
			bytes: res.Comms.BytesSent, segments: res.Comms.Segments,
			retries: res.Comms.Retries, timeouts: res.Comms.Timeouts, aborts: res.Comms.Aborts,
		},
		accuracy:    res.FinalAccuracy,
		digest:      fmt.Sprintf("%d/%.17g/%.17g", res.Updates, res.RunTime, res.FinalAccuracy),
		events:      events,
		simUpdates:  res.Updates,
		simVirtualS: res.RunTime,
	}
	if mode == modeObserved {
		heap.since(&out)
	}
	return out, nil
}
