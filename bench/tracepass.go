package main

import (
	"math"
	"time"

	"partialreduce/internal/analyze"
	"partialreduce/internal/trace"
)

// traceBlock is the traced pass's rep order. Untraced (observed) and traced
// P-Reduce reps sit next to each other so their rates pair up for
// trace.overhead_pct, and each observed P-Reduce rep is adjacent to an
// All-Reduce rep for paper.preduce_speedup; the mirror-image second half
// cancels linear host drift as in the end-to-end pass.
var traceBlock = []struct {
	v    variant
	mode repMode
}{
	{vAllReduce, modeObserved}, {vPReduce, modeObserved}, {vPReduce, modeTraced},
	{vPReduce, modeTraced}, {vPReduce, modeObserved}, {vAllReduce, modeObserved},
}

// phaseTotals sums the analyzer's exclusive phase partition over reps.
type phaseTotals [analyze.NumPhase]float64

// runTraced is the traced pass: (a) interleaved observed and traced reps of
// the workload, the traced ones fed through analyze.Merge and Analyze for
// the phase budget; (b) every layer's public calls timed in isolation.
func runTraced(w workload, j job, seed int64, budget time.Duration, smoke bool, r *report) {
	canary0 := canaryGBps()
	chk := newRepChecker(w, r)

	if !smoke {
		for _, v := range []variant{vPReduce, vAllReduce} {
			out, err := j.rep(v, modePlain) // warm-up, discarded
			chk.check(v, out, err)
		}
	}

	var (
		order        []variant // observed reps only, in run order
		rates        []float64
		plainP       []float64 // observed P-Reduce rates
		tracedP      []float64
		overheads    []float64 // per adjacent (observed, traced) pair, percent
		phases       phaseTotals
		tracedSteps  int64
		tracedEvents int64
		signalWaits  []float64
		gaps         []float64
		obs          repOut // sums over observed reps of both variants
		obsP         repOut // sums over observed P-Reduce reps
		simRates     []float64
		simVirtual   []float64
		virtualRate  = map[variant]float64{}
	)
	blocks := 0
	repsBudget := time.Duration(float64(budget) * 0.45)
	started := time.Now()
	for blocks == 0 || (!smoke && time.Since(started) < repsBudget) {
		blocks++
		block := traceBlock
		if smoke {
			block = traceBlock[:3]
		}
		blockRates := make([]float64, len(traceBlock)) // 0: rep failed or not run
		for i, step := range block {
			out, err := j.rep(step.v, step.mode)
			if !chk.check(step.v, out, err) {
				continue
			}
			rate := float64(out.steps) / out.wall.Seconds()
			blockRates[i] = rate
			if step.mode == modeTraced {
				tracedP = append(tracedP, rate)
				tracedSteps += out.steps
				tracedEvents += int64(len(out.events))
				err := analyzeRep(out.events, &phases, &signalWaits)
				r.check(err == nil, "%s analyze: %v", w.name, err)
				continue
			}
			order = append(order, step.v)
			rates = append(rates, rate)
			obs.steps += out.steps
			obs.mallocs += out.mallocs
			obs.allocBytes += out.allocBytes
			obs.f64Misses += out.f64Misses
			if out.simVirtualS > 0 {
				virtualRate[step.v] = float64(out.steps) / out.simVirtualS
			}
			if step.v != vPReduce {
				continue
			}
			plainP = append(plainP, rate)
			gaps = append(gaps, out.gapsUS...)
			obsP.steps += out.steps
			obsP.memberships += out.memberships
			obsP.comms.add(out.comms)
			if out.simUpdates > 0 {
				simRates = append(simRates, float64(out.simUpdates)/out.wall.Seconds())
				simVirtual = append(simVirtual, out.simVirtualS/out.wall.Seconds())
			}
		}
		// Each traced rep pairs with the observed P-Reduce rep beside it.
		for _, pair := range [][2]int{{1, 2}, {4, 3}} {
			if plain, traced := blockRates[pair[0]], blockRates[pair[1]]; plain > 0 && traced > 0 {
				overheads = append(overheads, (plain/traced-1)*100)
			}
		}
	}

	// (a) what the reps say.
	var phaseSum float64
	for _, v := range phases {
		phaseSum += v
	}
	share := func(ps ...analyze.Phase) float64 {
		if phaseSum == 0 {
			return 0
		}
		var s float64
		for _, p := range ps {
			s += phases[p]
		}
		return s / phaseSum
	}
	r.set("engine.compute_share", share(analyze.PhaseCompute))
	r.set("engine.comm_share", share(analyze.PhaseComm))
	r.set("engine.signal_wait_share", share(analyze.PhaseSignalWait))
	r.set("engine.group_wait_share", share(analyze.PhaseGroupWait))
	// Retry back-off cannot occur on these workloads (a retry fails the
	// rep), so its slot folds into "other" and the five shares sum to 1.
	r.set("engine.other_share", share(analyze.PhaseOther, analyze.PhaseRetry))
	shareSum := share(analyze.PhaseCompute, analyze.PhaseComm, analyze.PhaseSignalWait,
		analyze.PhaseGroupWait, analyze.PhaseOther, analyze.PhaseRetry)
	r.check(math.Abs(shareSum-1) <= 1e-6, "%s engine shares sum to %.9f", w.name, shareSum)

	perStep := func(total float64, steps int64) float64 {
		if steps == 0 {
			return 0
		}
		return total / float64(steps)
	}
	r.set("collective.bytes_per_step", perStep(float64(obsP.comms.bytes), obsP.steps))
	r.set("collective.segments_per_step", perStep(float64(obsP.comms.segments), obsP.steps))
	r.set("collective.retries", float64(obsP.comms.retries))
	r.set("collective.timeouts", float64(obsP.comms.timeouts))
	r.set("collective.aborts", float64(obsP.comms.aborts))
	if !w.sim {
		r.set("controller.solo_share", 1-perStep(float64(obsP.memberships), obsP.steps))
		r.setLatency("live.signal_wait_p50_us", signalWaits)
		r.set("live.signal_wait_p99_us", percentile(signalWaits, 99))
		r.setLatency("live.iter_p50_us", gaps)
		r.set("live.iter_p99_us", percentile(gaps, 99))
	}
	if w.sim {
		r.setSamples("sim.updates_per_s", simRates)
		r.setSamples("sim.virtual_s_per_wall_s", simVirtual)
	} else {
		simLayer(seed, layerBudget{total: budget, smoke: smoke}, r)
	}
	r.setSamples("trace.overhead_pct", overheads)
	r.set("trace.events_per_step", perStep(float64(tracedEvents), tracedSteps))
	setSpeedup(r, order, rates, virtualRate)
	r.set("runtime.allocs_per_step", perStep(float64(obs.mallocs), obs.steps))
	r.set("runtime.alloc_bytes_per_step", perStep(float64(obs.allocBytes), obs.steps))
	r.set("bufpool.f64_misses_per_step", perStep(float64(obs.f64Misses), obs.steps))
	r.set("rate.preduce_untraced_steps_per_s", median(plainP))
	r.set("rate.preduce_traced_steps_per_s", median(tracedP))

	// (b) each layer on its own.
	layerTimings(w, seed, layerBudget{total: budget, smoke: smoke}, r)

	// The parts against the whole: what one step's communication should
	// cost if it were only segment hand-offs plus kernel time, over what
	// the trace says it did cost.
	commPerStepUS := perStep(phases[analyze.PhaseComm], tracedSteps) * 1e6
	rtt := r.values["transport.mem_seg_rtt_us"]
	if w.tcp {
		rtt = r.values["transport.tcp_seg_rtt_us"]
	}
	segPartUS := r.values["collective.segments_per_step"] * rtt / 2
	kernelPartUS := 0.0
	if g := r.values["tensor.addscaled_gbps"]; g > 0 {
		kernelPartUS = r.values["collective.bytes_per_step"] / g / 1e3
	}
	if commPerStepUS > 0 && !w.sim { // sim comm time is virtual: not comparable
		r.set("budget.comm_explained_ratio", (segPartUS+kernelPartUS)/commPerStepUS)
	}
	r.set("budget.segment_part_us_per_step", segPartUS)
	r.set("budget.kernel_part_us_per_step", kernelPartUS)
	r.set("budget.measured_comm_us_per_step", commPerStepUS)

	canary1 := canaryGBps()
	r.set("host.canary_gbps", canary0)
	r.set("host.canary_drift_pct", (canary1/canary0-1)*100)
	r.set("runtime.peak_rss_mb", peakRSSMB())
	r.meta.CanaryGBps = [2]float64{canary0, canary1}
	r.meta.Reps["blocks"] = blocks
	r.meta.Reps["preduce_untraced"] = len(plainP)
	r.meta.Reps["preduce_traced"] = len(tracedP)
	r.meta.Reps["allreduce"] = len(order) - len(plainP)
}

// analyzeRep feeds one traced rep's ring through the offline analyzer and
// accumulates its phase partition and its signal-wait span durations.
func analyzeRep(events []trace.Event, phases *phaseTotals, signalWaits *[]float64) error {
	merged, err := analyze.Merge([]analyze.RankTrace{{Rank: -1, Events: events}})
	if err != nil {
		return err
	}
	rep, err := analyze.Analyze(merged)
	if err != nil {
		return err
	}
	for _, rs := range rep.Ranks {
		for p, v := range rs.Phases {
			phases[p] += v
		}
	}
	for _, ev := range events {
		if ev.Kind == trace.KSignalWait {
			*signalWaits = append(*signalWaits, ev.Dur*1e6)
		}
	}
	return nil
}

// simLayer is the simulator's row in a live workload's traced pass: a few
// short single-threaded P-Reduce simulations of the sim workload, timed from
// outside, every one of which must reproduce the first one's outcome.
func simLayer(seed int64, b layerBudget, r *report) {
	w, err := findWorkload("sim")
	if err != nil {
		r.check(false, "sim layer: %v", err)
		return
	}
	j, err := newSimJob(w, seed, b.smoke, true)
	if err != nil {
		r.check(false, "sim layer: %v", err)
		return
	}
	chk := newRepChecker(w, r)
	if b.smoke {
		chk.w.accFloor = 0
	}
	var rates, virtual []float64
	deadline := time.Now().Add(b.of(0.06))
	for len(rates) < b.minSamples(4) || time.Now().Before(deadline) {
		out, err := j.rep(vPReduce, modePlain)
		if !chk.check(vPReduce, out, err) {
			break
		}
		rates = append(rates, float64(out.simUpdates)/out.wall.Seconds())
		virtual = append(virtual, out.simVirtualS/out.wall.Seconds())
	}
	r.setSamples("sim.updates_per_s", rates)
	r.setSamples("sim.virtual_s_per_wall_s", virtual)
}
