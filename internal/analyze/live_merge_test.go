package analyze

// End-to-end live differential: a real 3-rank multi-process run (Mem
// transport, one tracer and instrument set per rank, an injected
// straggler) must merge cleanly, convict the straggler in the offline
// blame ledger, the online /metrics gauges and a postmortem bundle read
// back through the bundle path, and reconcile the estimates.

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"partialreduce/internal/data"
	"partialreduce/internal/health"
	"partialreduce/internal/live"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
	"partialreduce/internal/trace"
	"partialreduce/internal/transport"
)

const straggler = 2

func runStragglerWorld(t *testing.T) ([]RankTrace, *trace.Tracer, *metrics.Instruments) {
	t.Helper()
	const n, iters = 3, 50
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: 4, Dim: 12, Examples: 1600, Separation: 3.2, Noise: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.8)
	base := live.Config{
		N: n, P: 2,
		Spec:      model.Spec{Inputs: 12, Hidden: []int{16}, Classes: 4},
		Seed:      9,
		Train:     train,
		Test:      test,
		BatchSize: 16,
		Optimizer: optim.Config{LR: 0.05, Momentum: 0.9},
		Iters:     iters,
		ComputeDelay: func(worker, iter int) time.Duration {
			// Long enough that the straggler's blame clears the next rank's
			// under -race too, where 3 ms left it at 0.7–1.2× of it.
			if worker == straggler {
				return 20 * time.Millisecond
			}
			return 0
		},
	}

	eps := transport.NewMem(n)
	tracers := make([]*trace.Tracer, n)
	instruments := make([]*metrics.Instruments, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		cfg := base
		tracers[r] = trace.New(trace.NewWallClock(), 0)
		tracers[r].SetOrigin(int32(r))
		instruments[r] = metrics.NewInstruments(n)
		cfg.Tracer = tracers[r]
		cfg.Instruments = instruments[r]
		r := r
		wg.Add(1)
		go func(cfg live.Config) {
			defer wg.Done()
			_, errs[r] = live.RunWorker(cfg, eps[r], r == 0)
		}(cfg)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	tracks := make([]RankTrace, n)
	for r := 0; r < n; r++ {
		tracks[r] = RankTrace{Rank: r, Events: tracers[r].Events()}
	}
	return tracks, tracers[0], instruments[0] // the controller ran in rank 0's process
}

func TestLiveThreeRankMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("live multi-rank run in -short mode")
	}
	tracks, hostTracer, hostIns := runStragglerWorld(t)

	m, err := Merge(tracks)
	if err != nil {
		t.Fatal(err)
	}
	if m.HostRank != 0 {
		t.Fatalf("host rank %d, want 0", m.HostRank)
	}
	if _, err := ValidateMerged(m, 0); err != nil {
		t.Fatal(err)
	}
	// All ranks shared one process clock, so the true offsets are zero;
	// the estimator must land within signal-latency distance of it.
	for _, o := range m.Offsets {
		if math.Abs(o.Offset) > 50e-3 {
			t.Fatalf("rank %d offset %.6fs, want ~0 (shared clock)", o.Rank, o.Offset)
		}
	}

	rep, err := Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) == 0 {
		t.Fatal("no groups reconstructed")
	}

	// The injected straggler must top the blame ledger.
	var blames [3]float64
	var waits [3]float64
	for _, rs := range rep.Ranks {
		if rs.Rank >= 0 && rs.Rank < 3 {
			blames[rs.Rank] = rs.Blame
			waits[rs.Rank] = rs.Wait
		}
	}
	if blames[straggler] <= 0 {
		t.Fatalf("straggler blame = %v, want > 0", blames[straggler])
	}
	for r, b := range blames {
		if r != straggler && b >= blames[straggler] {
			t.Fatalf("rank %d blame %.6f >= straggler blame %.6f", r, b, blames[straggler])
		}
	}

	// Blame totals reconcile with the observed waiting: per group the
	// induced wait is the members' arrival-to-formation waits minus the
	// controller's (tiny) formation latency, so the two totals must
	// agree within a generous latency allowance.
	totalBlame, totalWait := 0.0, 0.0
	for _, g := range rep.Groups {
		totalBlame += g.Induced
	}
	for _, w := range waits {
		totalWait += w
	}
	if totalBlame > totalWait+1e-9 {
		t.Fatalf("blame %.6fs exceeds total observed wait %.6fs", totalBlame, totalWait)
	}
	if d := totalWait - totalBlame; d > 0.3*totalWait+0.05 {
		t.Fatalf("blame %.6fs vs observed group waits %.6fs: gap %.6fs exceeds tolerance", totalBlame, totalWait, d)
	}

	// Online estimator (rank 0's instruments, folded from the host's ring)
	// agrees with the offline ledger and convicts the same rank. Both read
	// the host's ready and formation stamps, so they agree bit for bit.
	snap := hostIns.Snapshot()
	if len(snap.Blame) != 3 {
		t.Fatalf("online blame arity %d", len(snap.Blame))
	}
	for r := range blames {
		if math.Float64bits(blames[r]) != math.Float64bits(snap.Blame[r]) ||
			math.Float64bits(waits[r]) != math.Float64bits(snap.GroupWait[r]) {
			t.Errorf("rank %d: offline blame %v wait %v, online blame %v wait %v",
				r, blames[r], waits[r], snap.Blame[r], snap.GroupWait[r])
		}
	}
	if snap.Blame[straggler] <= 0 {
		t.Fatalf("online straggler blame = %v, want > 0", snap.Blame[straggler])
	}
	for r, b := range snap.Blame {
		if r != straggler && b >= snap.Blame[straggler] {
			t.Fatalf("online: rank %d blame %.6f >= straggler %.6f", r, b, snap.Blame[straggler])
		}
	}
	onlineTotal := 0.0
	for _, b := range snap.Blame {
		onlineTotal += b
	}
	if d := math.Abs(onlineTotal - totalBlame); d > 0.3*totalBlame+0.05 {
		t.Fatalf("online blame %.6fs vs offline %.6fs: gap %.6fs exceeds tolerance", onlineTotal, totalBlame, d)
	}

	// The Prometheus rendering exposes the gauges, nonzero, with the
	// straggler's series present.
	var sb strings.Builder
	if err := metrics.WritePrometheus(&sb, snap); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, metric := range []string{
		"preduce_worker_wait_seconds_total",
		"preduce_worker_blame_seconds_total",
		"preduce_worker_blame_recent",
		"preduce_worker_critical_total",
	} {
		if !strings.Contains(text, metric) {
			t.Fatalf("/metrics missing %s", metric)
		}
	}
	if strings.Contains(text, "preduce_worker_blame_seconds_total{worker=\"2\"} 0\n") {
		t.Fatal("/metrics shows zero blame for the injected straggler")
	}

	// And the scoreboard ranks the straggler first.
	sb.Reset()
	if err := metrics.WriteScoreboard(&sb, snap); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("scoreboard too short:\n%s", sb.String())
	}
	first := strings.Fields(lines[2])
	if len(first) == 0 || first[0] != "2" {
		t.Fatalf("scoreboard top rank = %q, want straggler 2:\n%s", first, sb.String())
	}

	// Third read-out: an operator-requested bundle captured after the run,
	// read back through the bundle path (validate, rank rule, Merge,
	// Analyze), convicts the same rank from the host's trace ring alone.
	rec := health.NewRecorder(t.TempDir(), hostTracer, hostIns, nil)
	path, err := rec.Capture("operator-requested", hostTracer.Now(), nil, health.State{})
	if err != nil {
		t.Fatal(err)
	}
	_, parts, ring, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Rank != 0 {
		t.Fatalf("bundle ring rank %d, want host rank 0", ring.Rank)
	}
	bm, err := Merge([]RankTrace{ring})
	if err != nil {
		t.Fatal(err)
	}
	brep, err := Analyze(bm)
	if err != nil {
		t.Fatal(err)
	}
	top := brep.Ranks[0]
	for _, rs := range brep.Ranks {
		if rs.Blame > top.Blame {
			top = rs
		}
	}
	if top.Rank != straggler {
		t.Fatalf("bundle ledger convicts rank %d (blame %.6f), want straggler %d", top.Rank, top.Blame, straggler)
	}
	if board := strings.Split(string(parts[health.PartScoreboard]), "\n"); len(board) < 3 || !strings.HasPrefix(strings.TrimSpace(board[2]), "2 ") {
		t.Fatalf("bundle scoreboard does not rank the straggler first:\n%s", parts[health.PartScoreboard])
	}
}
