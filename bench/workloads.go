package main

import (
	"fmt"
	"time"

	"partialreduce/internal/data"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
)

// Cluster shape shared by every live workload: the paper's "CON P=3" column
// (constant 1/P weights, static policy) on eight workers.
const (
	liveN = 8
	liveP = 3
	simN  = 32
)

// workload is one row of the workload table in README.md. Work per rep is
// fixed (iterations, not seconds) so that counts repeat from run to run.
type workload struct {
	name string
	why  string
	// spec is the model every replica trains; its parameter count D sets
	// the collective payload.
	spec model.Spec
	// tcp selects an 8-rank loopback TCP mesh instead of the in-process Mem
	// transport.
	tcp bool
	// wire runs P-Reduce as one live.RunWorker per rank with rank 0 hosting
	// the controller over the transport's control tags, instead of live.Run
	// with its in-process controller service.
	wire bool
	// hetero injects the GPU-sharing delay profile (see computeDelay).
	hetero bool
	// iters is local iterations per rank per rep; smokeIters the -smoke size.
	// itersAllReduce, when set, sizes the All-Reduce reps on their own: a rep
	// follows the host's speed over its whole length, and the reference reps
	// on either side can only speak for it while it is short.
	iters, smokeIters, itersAllReduce int
	// sim marks the simulator workload: iters are unused, the update budgets
	// below size a rep instead.
	sim                      bool
	simUpdatesP, simUpdatesA int
	// accFloor is the final-accuracy correctness floor (chance is 0.25).
	accFloor float64
	// refIters sizes the reference rep that runs on either side of every
	// product rep (reference.go: same rank count, payload and transport
	// kind), and refNominal is that reference's steps per second on a quiet
	// review host: end-to-end rates are reported as rate / reference rate *
	// refNominal. Zero means the workload has no reference: hetero sleeps
	// most of the time, so the host's speed hardly reaches its rates, and
	// dividing by something that does follow the host would add noise.
	refIters, refSmokeIters int
	refNominal              float64
	// ungated workloads run on request but are not listed in BENCHMARK.json
	// (README.md says why); their layers still report in every traced pass.
	ungated bool
}

var workloads = []workload{
	{
		name:  "comm_mem",
		why:   "2.1 MB model over the in-process transport: ring, mailbox and reduce kernel dominate, the codec does nothing",
		spec:  model.Spec{Inputs: 60, Hidden: []int{4096}, Classes: 4},
		iters: 50, smokeIters: 3, accFloor: 0.5,
		refIters: 30, refSmokeIters: 3, refNominal: 1700,
	},
	{
		name: "comm_tcp",
		why:  "same job over an 8-rank TCP loopback mesh: adds frame encode, one write per frame and the read-loop handoff",
		spec: model.Spec{Inputs: 60, Hidden: []int{4096}, Classes: 4},
		tcp:  true, iters: 30, smokeIters: 3, accFloor: 0.5,
		refIters: 12, refSmokeIters: 3, refNominal: 600,
	},
	{
		name: "ctrl_tcp",
		why:  "108-parameter model, controller reached over TCP control tags: control round trip and small-frame latency dominate",
		spec: model.Spec{Inputs: 8, Hidden: []int{8}, Classes: 4},
		tcp:  true, wire: true, iters: 800, smokeIters: 20, itersAllReduce: 300, accFloor: 0.5,
		refIters: 400, refSmokeIters: 20, refNominal: 17500,
	},
	{
		name:   "hetero",
		why:    "sleep-dominated GPU-sharing profile (2 of 8 ranks 3x slower): measures group formation and fast-forward, not bytes",
		spec:   model.Spec{Inputs: 16, Hidden: []int{16}, Classes: 4},
		hetero: true, iters: 150, smokeIters: 6, accFloor: 0.5,
	},
	{
		name: "sim",
		why:  "single-threaded deterministic simulator on 32 workers with a tiny model: event engine and controller are the cost",
		spec: model.Spec{Inputs: 8, Classes: 4},
		sim:  true, simUpdatesP: 60000, simUpdatesA: 30000, accFloor: 0.5,
		ungated: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// optimizer is shared by every workload: plain momentum SGD at a rate small
// enough that batch-size-1 training on the wide MLP stays finite.
func optimizer() optim.Config {
	return optim.Config{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4}
}

// dataset generates the workload's inputs from the seed: a well-separated
// 4-class Gaussian mixture at the model's input width, split into a training
// set and a small test set (the final evaluation sits inside the timed
// region of a rep, so it is kept to a few dozen forward passes).
func dataset(w workload, seed int64) (train, test *data.Dataset, err error) {
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: w.spec.Classes, Dim: w.spec.Inputs, Examples: 2048 + 64,
		Separation: 4, Noise: 1, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	train, test = ds.Split(2048.0 / (2048 + 64))
	return train, test, nil
}

// computeDelay is the hetero workload's injected per-batch latency: ranks 0
// and 1 share an accelerator at heterogeneity level 3 (6 ms), the rest own
// one (2 ms), each with ±15% jitter. It is a pure function of (seed, rank,
// iter) so that both variants and every rep see the same delays.
func computeDelay(seed int64, rank, iter int) time.Duration {
	base := 2 * time.Millisecond
	if rank < 2 {
		base = 6 * time.Millisecond
	}
	u := unitHash(uint64(seed), uint64(rank), uint64(iter)) // [0,1)
	return time.Duration(float64(base) * (0.85 + 0.30*u))
}

// unitHash mixes three words into a float in [0,1) (splitmix64 finalizer).
func unitHash(a, b, c uint64) float64 {
	z := a*0x9E3779B97F4A7C15 ^ b*0xBF58476D1CE4E5B9 ^ c*0x94D049BB133111EB
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
