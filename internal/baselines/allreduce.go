// Package baselines implements the seven comparison systems of the paper's
// evaluation (§5.1): the collective-operation methods All-Reduce,
// Eager-Reduce and AD-PSGD, and the parameter-server methods BSP, ASP, HETE
// (staleness-aware learning rates) and BK (backup workers). Each runs real
// SGD on the shared cluster substrate; only the synchronization structure
// and the communication cost model differ. The synchronization step itself
// lives in internal/engine: a baseline either delegates to a shared driver
// (All-Reduce) or drives the step machine and aggregation rules directly,
// pricing and charging its traffic on the cluster.
package baselines

import (
	"partialreduce/internal/cluster"
	"partialreduce/internal/engine"
	"partialreduce/internal/metrics"
)

// AllReduce is bulk-synchronous ring all-reduce training: every iteration,
// all N workers barrier, average gradients with a ring all-reduce, and apply
// the identical update. The round takes as long as the slowest worker — the
// straggler sensitivity the paper targets.
type AllReduce struct{}

// NewAllReduce returns the AR baseline.
func NewAllReduce() *AllReduce { return &AllReduce{} }

// Name implements cluster.Strategy.
func (*AllReduce) Name() string { return "AR" }

// Run implements cluster.Strategy by delegating to the shared step engine:
// RunAllReduceSim executes the same compute → reduce → apply step as the
// live RunAllReduceWorker, on the simulated cluster.
func (*AllReduce) Run(c *cluster.Cluster) (*metrics.Result, error) {
	return engine.RunAllReduceSim(c)
}
