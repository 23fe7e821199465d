package metrics

// The two renderings of an instruments snapshot: Prometheus text for
// /metrics and the postmortem bundle's metrics.prom, and the straggler
// scoreboard for preduce-live's -scoreboard dump and the bundle's
// scoreboard.txt. One renderer each, so an operator's scrape and a bundle
// read the same schema.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promText accumulates an exposition; the writers hand it to their
// io.Writer in one write.
type promText struct{ strings.Builder }

// promFloat formats a sample value the way Prometheus parses it back.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (p *promText) family(name, typ, help string) {
	fmt.Fprintf(p, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promText) scalar(name, typ, help string, v float64) {
	p.family(name, typ, help)
	fmt.Fprintf(p, "%s %s\n", name, promFloat(v))
}

func (p *promText) workerSamples(name string, vals []float64) {
	for i, v := range vals {
		fmt.Fprintf(p, "%s{worker=\"%d\"} %s\n", name, i, promFloat(v))
	}
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). The output is deterministic for a fixed
// snapshot: fixed metric order, workers ascending, buckets ascending.
func WritePrometheus(w io.Writer, snap *InstrumentsSnapshot) error {
	p := &promText{}

	// Staleness histogram: exact per-value buckets rendered cumulatively.
	h := snap.Staleness
	p.family("preduce_staleness", "histogram",
		"Per-member staleness (group max iteration minus member iteration) observed at group formation.")
	counts, _ := h.Buckets() // overflow is folded into +Inf via Count
	last := -1
	for v, c := range counts {
		if c != 0 {
			last = v
		}
	}
	var cum int64
	for v := 0; v <= last; v++ {
		cum += counts[v]
		fmt.Fprintf(p, "preduce_staleness_bucket{le=\"%d\"} %d\n", v, cum)
	}
	fmt.Fprintf(p, "preduce_staleness_bucket{le=\"+Inf\"} %d\npreduce_staleness_sum %d\npreduce_staleness_count %d\n",
		h.Count(), h.Sum(), h.Count())

	p.scalar("preduce_staleness_p50", "gauge", "Median observed staleness.", float64(h.Quantile(0.5)))
	p.scalar("preduce_staleness_p95", "gauge", "95th-percentile observed staleness.", float64(h.Quantile(0.95)))
	p.scalar("preduce_staleness_max", "gauge", "Maximum observed staleness.", float64(h.Max()))

	p.scalar("preduce_queue_depth", "gauge", "Ready-queue depth at the latest sample.", snap.QueueDepthSample)

	p.family("preduce_barrier_wait_seconds_total", "counter",
		"Cumulative seconds each worker spent waiting for a group instead of computing.")
	p.workerSamples("preduce_barrier_wait_seconds_total", snap.BarrierWait)

	// Online blame estimator (fed by the controller at each group
	// release): the live counterpart of preduce-analyze's blame ledger.
	perWorker := func(name, typ, help string, vals []float64) {
		if len(vals) > 0 {
			p.family(name, typ, help)
			p.workerSamples(name, vals)
		}
	}
	critical := make([]float64, len(snap.CriticalN))
	for i, v := range snap.CriticalN {
		critical[i] = float64(v)
	}
	perWorker("preduce_worker_wait_seconds_total", "counter",
		"Cumulative seconds each worker spent queued waiting for its group to form.", snap.GroupWait)
	perWorker("preduce_worker_blame_seconds_total", "counter",
		"Cumulative seconds of other workers' time each worker consumed by arriving last to its groups.", snap.Blame)
	perWorker("preduce_worker_blame_recent", "gauge",
		"Exponential moving average of each worker's per-group blame (the straggler scoreboard signal).", snap.BlameEWMA)
	perWorker("preduce_worker_critical_total", "counter",
		"Groups in which each worker was the last arrival.", critical)

	p.scalar("preduce_sync_max_contact_age", "gauge", "Groups since the most estranged alive worker pair last synchronized (-1: some pair never met).", float64(snap.MaxContactAge))
	p.scalar("preduce_sync_components", "gauge", "Connected components of the windowed sync-graph (1 = healthy).", float64(snap.SyncComponents))

	p.scalar("preduce_groups_formed_total", "counter", "P-Reduce groups formed.", float64(snap.GroupsFormed))
	p.scalar("preduce_group_interventions_total", "counter", "Groups rewritten by frozen avoidance.", float64(snap.Interventions))
	p.scalar("preduce_group_deferrals_total", "counter", "Group formations deferred awaiting a bridging signal.", float64(snap.Deferrals))

	p.scalar("preduce_epoch", "gauge", "Current membership world-view epoch (bumps on join/drain/decommission/fail).", float64(snap.Epoch))

	p.scalar("preduce_policy_p", "gauge", "Group size chosen at the latest adaptive-p decision (0: fixed P).", float64(snap.PolicyP))
	p.scalar("preduce_policy_deviations_total", "counter", "Adaptive-p group sizes that differed from fixed P's.", float64(snap.PolicyDeviations))

	cs := snap.Comms
	p.scalar("preduce_comm_ops_total", "counter", "Collective operations executed.", float64(cs.Ops))
	p.scalar("preduce_comm_sent_bytes_total", "counter", "Payload bytes sent across all workers.", float64(cs.BytesSent))
	p.scalar("preduce_comm_recv_bytes_total", "counter", "Payload bytes received across all workers.", float64(cs.BytesRecv))
	p.scalar("preduce_comm_segments_total", "counter", "Pipeline segments shipped.", float64(cs.Segments))
	p.scalar("preduce_comm_retries_total", "counter", "Collective attempts re-run after a timeout.", float64(cs.Retries))
	p.scalar("preduce_comm_timeouts_total", "counter", "Receive deadlines fired inside collectives.", float64(cs.Timeouts))
	p.scalar("preduce_comm_aborts_total", "counter", "Collectives abandoned after exhausting the retry budget.", float64(cs.Aborts))
	p.scalar("preduce_comm_reduce_scatter_seconds_total", "counter", "Cumulative seconds in the reduce-scatter phase across workers.", cs.ReduceScatterS)
	p.scalar("preduce_comm_all_gather_seconds_total", "counter", "Cumulative seconds in the all-gather phase across workers.", cs.AllGatherS)

	_, err := io.WriteString(w, p.String())
	return err
}

// WriteScoreboard renders the straggler scoreboard: one line per worker in
// Scoreboard order.
func WriteScoreboard(w io.Writer, snap *InstrumentsSnapshot) error {
	var b strings.Builder
	fmt.Fprintf(&b, "straggler scoreboard (groups formed: %d)\n", snap.GroupsFormed)
	rows := snap.Scoreboard()
	if len(rows) == 0 {
		b.WriteString("  (no per-worker blame data)\n")
	} else {
		b.WriteString("  rank  recent_s  blame_s  waited_s  critical  groups\n")
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %4d  %8.3f  %7.3f  %8.3f  %8d  %6d\n",
			r.Rank, r.Recent, r.Blame, r.Waited, r.Critical, r.Groups)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
