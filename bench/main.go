// Command bench is the repository benchmark: it runs one training workload
// through the product's public entry points, times it from outside, checks
// the outputs, and prints every metric by name with its unit. README.md in
// this directory is the contract (workloads, metrics, repetition protocol);
// BENCHMARK.json at the repository root is its machine-readable summary.
//
//	go run . -workload comm_mem -seed 1              # end-to-end metrics
//	go run . -workload comm_mem -seed 1 -trace 1     # per-layer metrics
//	go run . -workload comm_mem -smoke               # structure check, <5 s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// processStart anchors setup_s: package variables initialise before main.
var processStart = time.Now()

// benchProcs pins the scheduler width so the same binary measures the same
// thing on a wider host: 8 rank goroutines on 2 threads is the reference
// shape (and what the 2-core review host gives anyway).
const benchProcs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(benchProcs)

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (comm_mem, comm_tcp, ctrl_tcp, hetero, sim)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 26, "how long the timed phase measures")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead")
	smoke := fs.Bool("smoke", false, "one tiny rep per variant: checks structure and correctness, times nothing useful")
	summarize := fs.String("summarize", "", "summarise a repeat.sh log instead of running a workload")
	bounds := fs.String("bounds", "BENCHMARK.json", "with -summarize: file the per-metric bounds are read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize != "" {
		if err := summarizeFile(*summarize, *bounds, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *smoke {
		w.accFloor = 0 // a handful of iterations has not learned anything yet
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "bench: need -seconds >= 1 and -trace 0 or 1")
		return 2
	}

	newJob := func() (job, error) {
		if w.sim {
			return newSimJob(w, *seed, *smoke, *traced == 1)
		}
		return newLiveJob(w, *seed, *smoke)
	}

	meta := runMeta{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced == 1, Smoke: *smoke}
	var r *report
	if *traced == 1 {
		r = newReport(perLayer, meta)
		j, err := newJob()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		runTraced(w, j, *seed, time.Duration(*seconds)*time.Second, *smoke, r)
	} else {
		r = newReport(endToEnd, meta)
		runEndToEnd(w, newJob, time.Duration(*seconds)*time.Second, *smoke, r)
	}
	if err := r.write(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if r.failed > 0 || r.attempted == 0 {
		return 1
	}
	return 0
}

// job is one workload's rep runner: a rep builds a fresh world, does the
// workload's fixed work under variant v, and reports what happened.
type job interface {
	rep(v variant, mode repMode) (repOut, error)
}

// repChecker applies the per-rep correctness checks and remembers each
// deterministic variant's digest so later reps can be compared with it.
type repChecker struct {
	w       workload
	r       *report
	digests map[variant]string
}

func newRepChecker(w workload, r *report) *repChecker {
	return &repChecker{w: w, r: r, digests: map[variant]string{}}
}

// check tallies one rep as one attempted operation and reports whether its
// numbers may be used.
func (c *repChecker) check(v variant, out repOut, err error) bool {
	problem := ""
	switch {
	case err != nil:
		problem = err.Error()
	case out.steps <= 0 || out.wall <= 0:
		problem = "no steps counted"
	case out.comms.retries != 0 || out.comms.timeouts != 0 || out.comms.aborts != 0:
		problem = fmt.Sprintf("retries=%d timeouts=%d aborts=%d", out.comms.retries, out.comms.timeouts, out.comms.aborts)
	case out.accuracy < c.w.accFloor:
		problem = fmt.Sprintf("final accuracy %.3f below floor %.2f", out.accuracy, c.w.accFloor)
	case out.digest != "":
		if first, ok := c.digests[v]; !ok {
			c.digests[v] = out.digest
		} else if first != out.digest {
			problem = fmt.Sprintf("outcome %s differs from the first rep's %s", out.digest, first)
		}
	}
	c.r.check(problem == "", "%s %s rep: %s", c.w.name, v, problem)
	return problem == ""
}

// setupPasses is how many times a run sets up; setup_s is their median.
const setupPasses = 3

// setUp does once everything a run does before its first timed rep:
// generate the inputs from the seed, check the collective on a fresh world
// of the workload's transport, and run one discarded warm-up rep of every
// variant (each builds and tears down a world of its own). It returns the
// job the timed reps use (nil when the inputs could not be made) and the
// rate of its reference warm-up rep (0 when there was none).
func setUp(w workload, newJob func() (job, error), chk *repChecker, smoke bool) (j job, refRate float64) {
	j, err := newJob()
	chk.r.check(err == nil, "%s inputs: %v", w.name, err)
	if err != nil {
		return nil, 0
	}
	if !w.sim {
		ok, err := collectiveCheck(w)
		chk.r.check(ok && err == nil, "%s collective check: bit-identical=%t err=%v", w.name, ok, err)
	}
	if smoke {
		return j, 0
	}
	for _, v := range variantsOf(w) {
		out, err := j.rep(v, modePlain)
		if chk.check(v, out, err) && v == vReference {
			refRate = float64(out.steps) / out.wall.Seconds()
		}
	}
	return j, refRate
}

// variantsOf lists what a workload's reps run: both algorithms, and the
// reference job where the workload has one.
func variantsOf(w workload) []variant {
	if w.refNominal > 0 {
		return []variant{vPReduce, vReference, vAllReduce}
	}
	return []variant{vPReduce, vAllReduce}
}

// runEndToEnd is the untraced pass. Set-up runs setupPasses times, the first
// counted from process start, and setup_s is the median pass, each scaled by
// how fast its own reference rep ran as the rates are; then blocks of
// fixed-work reps (P A A P, with a reference rep on either side of every
// product rep where the workload has a reference) run until the time budget
// is spent, and each rate is the median over its variant's reps of the rep's
// rate relative to its reference neighbours.
func runEndToEnd(w workload, newJob func() (job, error), budget time.Duration, smoke bool, r *report) {
	canary0 := canaryGBps()
	chk := newRepChecker(w, r)

	passes := setupPasses
	if smoke {
		passes = 1
	}
	var j job
	var setups, rawSetups []float64
	for pass := 0; pass < passes; pass++ {
		start := time.Now()
		if pass == 0 {
			start = processStart
		}
		var refRate float64
		if j, refRate = setUp(w, newJob, chk, smoke); j == nil {
			return
		}
		took := time.Since(start).Seconds()
		rawSetups = append(rawSetups, took)
		if refRate > 0 {
			took *= refRate / w.refNominal
		}
		setups = append(setups, took)
	}
	r.setSamples("setup_s", setups)
	r.setSamples("raw.setup_s", rawSetups)

	var order []variant
	var rates []float64
	virtual := map[variant]float64{}
	runRep := func(v variant) {
		out, err := j.rep(v, modePlain)
		rate := 0.0
		if chk.check(v, out, err) {
			rate = float64(out.steps) / out.wall.Seconds()
			if out.simVirtualS > 0 {
				virtual[v] = float64(out.steps) / out.simVirtualS
			}
		}
		order = append(order, v)
		rates = append(rates, rate)
	}
	block := abbaOrder(1)
	if w.refNominal > 0 {
		block = referencedOrder(1)
	}
	if smoke {
		block = variantsOf(w)
	}
	// Stop where starting another block would overshoot the budget by more
	// than half a block, so the timed phase lasts budget ± block/2.
	timed := time.Now()
	var blockTook time.Duration
	for len(order) == 0 || (!smoke && time.Since(timed)+blockTook/2 < budget) {
		blockStart := time.Now()
		for _, v := range block {
			runRep(v)
		}
		blockTook = time.Since(blockStart)
	}
	if w.refNominal > 0 && !smoke {
		runRep(vReference) // the last product rep's second neighbour
	}
	canary1 := canaryGBps()

	relative := normalizeRates(order, rates, w.refNominal)
	r.setSamples("preduce_steps_per_s", relative[vPReduce])
	r.setSamples("allreduce_steps_per_s", relative[vAllReduce])
	setSpeedup(r, order, rates, virtual)
	// The bases of the relative rates: what the clock said, unscaled.
	raw := normalizeRates(order, rates, 0)
	r.setSamples("raw.preduce_steps_per_s", raw[vPReduce])
	r.setSamples("raw.allreduce_steps_per_s", raw[vAllReduce])
	r.meta.Reps[vPReduce.String()] = len(relative[vPReduce])
	r.meta.Reps[vAllReduce.String()] = len(relative[vAllReduce])
	r.meta.Reps["setup_passes"] = passes
	if w.refNominal > 0 {
		var ref []float64
		for i, v := range order {
			if v == vReference && rates[i] > 0 {
				ref = append(ref, rates[i])
			}
		}
		r.setSamples("reference.steps_per_s", ref)
		r.set("reference.nominal_steps_per_s", w.refNominal)
		r.meta.Reps[vReference.String()] = len(ref)
	}
	r.meta.CanaryGBps = [2]float64{canary0, canary1}
}

// setSpeedup reports paper.preduce_speedup: the median over adjacent
// (P-Reduce, All-Reduce) rep pairs of the ratio of their step rates. The
// simulator's reps carry virtual-time rates (steps per simulated second),
// a function of the seed alone, and those are used instead: the wall-clock
// ratio there compares simulation cost, not the simulated cluster.
func setSpeedup(r *report, order []variant, rates []float64, virtual map[variant]float64) {
	if virtual[vAllReduce] > 0 {
		r.set("paper.preduce_speedup", virtual[vPReduce]/virtual[vAllReduce])
		return
	}
	r.setSamples("paper.preduce_speedup", pairRatios(order, rates))
}
