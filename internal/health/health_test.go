package health

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// observeRelease feeds ins the events the controller records for group
// seq: each member's ready stamp at its arrival, the formation at release,
// and each member's staleness (stale, in member order).
func observeRelease(ins *metrics.Instruments, seq int64, release float64, members []int32, arrivals []float64, stale []int64) {
	for i, w := range members {
		ins.Observe(trace.Event{Kind: trace.KReady, Track: w, Iter: int32(seq), TS: arrivals[i], A: int64(i + 1)})
	}
	ins.Observe(trace.Event{Kind: trace.KGroupFormed, Track: trace.ControllerTrack, Iter: int32(seq), TS: release, A: seq, B: int64(len(members))})
	for i, w := range members {
		ins.Observe(trace.Event{Kind: trace.KStaleness, Track: w, Iter: int32(seq), A: stale[i], B: seq})
	}
}

// snapWithBlame returns a snapshot whose worker 1 carries a recent-blame
// EWMA of about ewma seconds.
func snapWithBlame(ewma float64) *metrics.InstrumentsSnapshot {
	ins := metrics.NewInstruments(4)
	// One release where worker 1 arrived last charges it (1-decay)·induced
	// into the EWMA; release repeatedly until the EWMA crosses ewma.
	for i := int64(1); i <= 200; i++ {
		at := float64(i)
		observeRelease(ins, i, at+10*ewma, []int32{0, 1, 2}, []float64{at, at + 10*ewma, at}, []int64{0, 0, 0})
		if s := ins.Snapshot(); s.BlameEWMA[1] >= ewma {
			break
		}
	}
	return ins.Snapshot()
}

func TestWatchdogHysteresisFireAndClear(t *testing.T) {
	wd := New(SLO{BlameRecent: 0.5})
	hot := Sample{Snap: snapWithBlame(1.0)}
	cold := Sample{Snap: snapWithBlame(0.0)}
	now := 0.0
	eval := func(s Sample) []Breach { now++; return wd.Eval(now, s) }

	for i := 1; i < fireCount; i++ {
		if br := eval(hot); len(br) != 0 {
			t.Fatalf("fired after %d breaching evals (fireCount=%d): %+v", i, fireCount, br)
		}
	}
	br := eval(hot)
	if len(br) != 1 || br[0].Rule != RBlameSpike {
		t.Fatalf("want blame-spike breach at eval %d, got %+v", fireCount, br)
	}
	if br[0].At != fireCount || br[0].Threshold != 0.5 || br[0].Value < 0.5 {
		t.Fatalf("breach fields wrong: %+v", br[0])
	}
	// Still breaching: no re-fire while the rule holds.
	for i := 0; i < 5; i++ {
		if br := eval(hot); len(br) != 0 {
			t.Fatalf("re-fired while already firing: %+v", br)
		}
	}
	st := wd.State()
	if !st.Ready() || st.Healthy() {
		t.Fatalf("state should be ready and unhealthy: %+v", st)
	}
	if len(st.Firing) != 1 || st.Firing[0] != "blame-spike" {
		t.Fatalf("firing list wrong: %v", st.Firing)
	}

	// clearCount−1 clean evals do not re-arm...
	for i := 1; i < clearCount; i++ {
		eval(cold)
	}
	if wd.State().Healthy() {
		t.Fatal("cleared before clearCount consecutive clean evals")
	}
	// ...a breaching eval resets the clear streak...
	eval(hot)
	for i := 1; i < clearCount; i++ {
		eval(cold)
	}
	if wd.State().Healthy() {
		t.Fatal("clear streak should have reset on the breaching eval")
	}
	// ...and clearCount consecutive clean evals finally re-arm.
	eval(cold)
	if !wd.State().Healthy() {
		t.Fatal("rule did not clear after clearCount clean evals")
	}
	// Re-armed: a fresh anomaly fires again (a second bundle for a
	// genuinely new episode).
	for i := 1; i < fireCount; i++ {
		eval(hot)
	}
	br = eval(hot)
	if len(br) != 1 {
		t.Fatalf("re-armed rule did not fire on a new episode: %+v", br)
	}
	if got := wd.State().Rules[int(RBlameSpike)].Fires; got != 2 {
		t.Fatalf("fires counter = %d, want 2", got)
	}
}

func TestWatchdogDeltaRulesPrimeOnFirstEval(t *testing.T) {
	wd := New(SLO{RetryStorm: 5, EpochChurn: 2})
	ins := metrics.NewInstruments(2)
	ins.AddComms(metrics.CommStats{Retries: 100, Timeouts: 100})
	ins.Observe(trace.Event{Kind: trace.KWorkerJoin, Track: 1, A: 50})
	// First eval seeds baselines: the pre-existing backlog must not fire.
	if br := wd.Eval(1, Sample{Snap: ins.Snapshot()}); len(br) != 0 {
		t.Fatalf("delta rules fired on priming eval: %+v", br)
	}
	// No change: still quiet.
	if br := wd.Eval(2, Sample{Snap: ins.Snapshot()}); len(br) != 0 {
		t.Fatalf("delta rules fired with zero delta: %+v", br)
	}
	// A storm between evals, held for fireCount evals, fires both.
	var br []Breach
	for i := 0; i < fireCount; i++ {
		ins.AddComms(metrics.CommStats{Retries: 4, Timeouts: 3})
		ins.Observe(trace.Event{Kind: trace.KWorkerDead, Track: 1, A: int64(53 + 3*i)})
		br = wd.Eval(float64(3+i), Sample{Snap: ins.Snapshot()})
	}
	if len(br) != 2 || br[0].Rule != RRetryStorm || br[1].Rule != REpochChurn {
		t.Fatalf("want retry-storm + epoch-churn, got %+v", br)
	}
	if br[0].Value != 7 || br[1].Value != 3 {
		t.Fatalf("delta values wrong: %+v", br)
	}
}

func TestWatchdogSilenceGatedOnActive(t *testing.T) {
	wd := New(SLO{Silence: 5})
	ins := metrics.NewInstruments(2)
	snap := func() Sample { return Sample{Snap: ins.Snapshot(), Active: 2} }
	wd.Eval(0, snap()) // primes progressAt=0
	// Progress resets the silence clock.
	ins.Observe(trace.Event{Kind: trace.KGroupFormed, Track: trace.ControllerTrack, A: 1, B: 2})
	if br := wd.Eval(6, snap()); len(br) != 0 {
		t.Fatalf("silence fired despite fresh progress: %+v", br)
	}
	// 6+ quiet seconds with 2 active workers, held for fireCount evals: fires.
	var br []Breach
	for i := 0; i < fireCount; i++ {
		br = wd.Eval(float64(12+i), snap())
	}
	if len(br) != 1 || br[0].Rule != RHeartbeatSilence {
		t.Fatalf("want heartbeat-silence, got %+v", br)
	}
	// Same silence with the run winding down (Active < 2): gated.
	wd2 := New(SLO{Silence: 5})
	wd2.Eval(0, Sample{Snap: ins.Snapshot(), Active: 1})
	for i := 0; i < fireCount; i++ {
		if br := wd2.Eval(float64(12+i), Sample{Snap: ins.Snapshot(), Active: 1}); len(br) != 0 {
			t.Fatalf("silence fired during wind-down: %+v", br)
		}
	}
}

func TestWatchdogQueueAndPartitionRules(t *testing.T) {
	wd := New(SLO{QueueDepth: 4, SyncComponents: 2, StalenessP95: 3})
	ins := metrics.NewInstruments(4)
	ins.SetSyncGauges(1, 3)
	stale := func(v int64) { ins.Observe(trace.Event{Kind: trace.KStaleness, Track: 0, A: v}) }
	for i := 0; i < 18; i++ {
		stale(0)
	}
	stale(8) // two 8s out of 20: the p95 rank (19) lands on 8
	stale(8)
	var br []Breach
	for i := 0; i < fireCount; i++ {
		br = wd.Eval(float64(1+i), Sample{Snap: ins.Snapshot(), QueueDepth: 5})
	}
	rules := make([]string, len(br))
	for i, b := range br {
		rules[i] = b.Rule.String()
	}
	got := strings.Join(rules, ",")
	if got != "staleness-p95,sync-partition,queue-stall" {
		t.Fatalf("rules = %s", got)
	}
}

func TestNilWatchdogAndRecorder(t *testing.T) {
	var wd *Watchdog
	if br := wd.Eval(1, Sample{}); br != nil {
		t.Fatal("nil watchdog evaluated")
	}
	if st := wd.State(); st.Ready() || !st.Healthy() {
		t.Fatalf("nil watchdog state: %+v", st)
	}
	var rec *Recorder
	if p, err := rec.Capture("x", 0, nil, State{}); p != "" || err != nil {
		t.Fatal("nil recorder captured")
	}
	if rec.Written() != nil {
		t.Fatal("nil recorder has state")
	}
}

// buildBundle assembles a representative in-memory bundle.
func buildBundle() *Bundle {
	ins := metrics.NewInstruments(3)
	observeRelease(ins, 1, 0.4, []int32{0, 1, 2}, []float64{0, 0.4, 0.2}, []int64{1, 0, 2})
	ins.AddComms(metrics.CommStats{Ops: 3, Retries: 1, Timeouts: 2})
	ins.Observe(trace.Event{Kind: trace.KWorkerDrain, Track: 2, A: 4})
	now := 0.0
	tr := trace.New(trace.FuncClock(func() float64 { return now }), 16)
	tr.SetOrigin(0)
	now = 1.5
	tr.Instant(trace.KReady, 1, 7, 3, 0)
	tr.SpanAt(trace.KCompute, 0, 7, 1.0, 0.25, 0, 0)
	wd := New(SLO{BlameRecent: 0.01})
	var br []Breach
	for i := 0; i < fireCount; i++ {
		br = wd.Eval(2.0, Sample{Snap: ins.Snapshot(), QueueDepth: 1, Active: 3})
	}
	return &Bundle{
		Reason:   "blame-spike",
		At:       2.0,
		Breaches: br,
		State:    wd.State(),
		Snap:     ins.Snapshot(),
		Events:   tr.Events(),
		Config:   []byte(`{"n":3,"p":2}`),
	}
}

func TestBundleWriteValidateDeterministic(t *testing.T) {
	b := buildBundle()
	one, two := t.TempDir(), t.TempDir()
	if err := WriteBundle(one, b); err != nil {
		t.Fatal(err)
	}
	if err := WriteBundle(two, b); err != nil {
		t.Fatal(err)
	}
	for _, name := range append([]string{PartManifest}, partOrder...) {
		a, errA := os.ReadFile(filepath.Join(one, name))
		c, errC := os.ReadFile(filepath.Join(two, name))
		if errA != nil || errC != nil || !bytes.Equal(a, c) {
			t.Fatalf("part %s is not deterministic (%v, %v)", name, errA, errC)
		}
	}
	man, parts, err := ReadBundle(one)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if man.Version != BundleVersion || man.Reason != "blame-spike" || man.At != 2.0 {
		t.Fatalf("manifest: %+v", man)
	}
	if len(man.Rules) != 1 || man.Rules[0] != "blame-spike" {
		t.Fatalf("manifest rules: %v", man.Rules)
	}
	if len(man.Parts) != 5 {
		t.Fatalf("manifest parts: %+v", man.Parts)
	}

	// Parts carry the expected payloads.
	if string(parts[PartConfig]) != `{"n":3,"p":2}` {
		t.Fatalf("config part mangled: %q", parts[PartConfig])
	}
	if board := strings.Split(string(parts[PartScoreboard]), "\n"); len(board) < 3 || !strings.HasPrefix(strings.TrimSpace(board[2]), "1 ") {
		t.Fatalf("scoreboard should rank worker 1 first:\n%s", parts[PartScoreboard])
	}
	if lines := strings.Count(string(parts[PartTrace]), "\n"); lines != 2 {
		t.Fatalf("trace part holds %d events, want 2", lines)
	}
	var prom bytes.Buffer
	if err := metrics.WritePrometheus(&prom, b.Snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parts[PartMetrics], prom.Bytes()) || !strings.Contains(prom.String(), "\npreduce_epoch 4\n") {
		t.Fatalf("metrics part is not the snapshot's exposition:\n%s", parts[PartMetrics])
	}
	if !strings.Contains(string(parts[PartWatchdog]), `"rule":"blame-spike"`) {
		t.Fatal("watchdog part missing breach")
	}

	// A file the manifest does not list fails the read.
	stray := filepath.Join(two, "notes.txt")
	if err := os.WriteFile(stray, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadBundle(two); err == nil || !strings.Contains(err.Error(), "notes.txt") {
		t.Fatalf("stray file: err = %v, want one naming it", err)
	}

	// A flipped byte in any part fails the read.
	bad := []byte(`{"n":3,"p":2}`)
	bad[2] ^= 0xff
	if err := os.WriteFile(filepath.Join(one, PartConfig), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadBundle(one); err == nil || !strings.Contains(err.Error(), PartConfig) {
		t.Fatalf("corrupted part: err = %v, want one naming %s", err, PartConfig)
	}
}

// TestValidateRefusesVersion2: an intact version-2 bundle (its snapshot as
// metrics.json and its scoreboard as scoreboard.csv) is refused by its
// version, not by its part names, and the error names both versions.
func TestValidateRefusesVersion2(t *testing.T) {
	dir := t.TempDir()
	names := []string{PartWatchdog, "metrics.json", "scoreboard.csv", PartTrace, PartConfig}
	man := &Manifest{Version: 2, Reason: "blame-spike"}
	for _, name := range names {
		blob := []byte("{}")
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		man.Parts = append(man.Parts, PartInfo{Name: name, Size: int64(len(blob)), CRC32: crc32.ChecksumIEEE(blob)})
	}
	manJSON, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, PartManifest), manJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadBundle(dir)
	if err == nil || !strings.Contains(err.Error(), "version 2, want 3") {
		t.Fatalf("version-2 bundle: err = %v, want the version refusal", err)
	}
}

func TestRecorderCaptureAndCap(t *testing.T) {
	dir := t.TempDir()
	ins := metrics.NewInstruments(2)
	now := 3.0
	tr := trace.New(trace.FuncClock(func() float64 { return now }), 8)
	rec := NewRecorder(filepath.Join(dir, "pm"), tr, ins, []byte(`{"seed":1}`))

	p1, err := rec.Capture("blame-spike", 3.0, []Breach{{Rule: RBlameSpike, Value: 1, Threshold: 0.5, At: 3, Seq: 4}}, State{})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p1) != "postmortem-000-blame-spike" {
		t.Fatalf("bundle name: %s", p1)
	}
	if _, _, err := ReadBundle(p1); err != nil {
		t.Fatalf("captured bundle invalid: %v", err)
	}
	if _, err := rec.Capture("Operator Requested!", 4.0, nil, State{}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < maxBundles; i++ {
		if p, err := rec.Capture("retry-storm", 4.5, nil, State{}); err != nil || p == "" {
			t.Fatalf("capture %d under the cap: %q %v", i, p, err)
		}
	}
	// Cap reached: silently dropped.
	p3, err := rec.Capture("retry-storm", 5.0, nil, State{})
	if err != nil || p3 != "" {
		t.Fatalf("capture past cap: %q %v", p3, err)
	}
	w := rec.Written()
	if len(w) != maxBundles || filepath.Base(w[1]) != "postmortem-001-operator-requested-" {
		t.Fatalf("written: %v", w)
	}
	// No temp litter.
	entries, _ := os.ReadDir(filepath.Join(dir, "pm"))
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp directory left behind: %s", e.Name())
		}
	}
}
