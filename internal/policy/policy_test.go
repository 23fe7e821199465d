package policy

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSpecResolveValidate(t *testing.T) {
	s := Spec{Name: NameAdaptiveP}
	r := s.Resolve(4)
	if r.PMin != 2 || r.PMax != 4 || r.Window != DefaultWindow {
		t.Fatalf("Resolve defaults: %+v", r)
	}
	if again := r.Resolve(4); again != r {
		t.Fatalf("Resolve not idempotent: %+v vs %+v", again, r)
	}
	if err := s.Validate(8, 4); err != nil {
		t.Fatalf("valid adaptive spec rejected: %v", err)
	}
	for _, bad := range []struct {
		spec    Spec
		n, p    int
		wantErr string
	}{
		{Spec{Name: "nope"}, 8, 4, "unknown"},
		{Spec{Name: NameAdaptiveP, PMin: 1}, 8, 4, "p-min"},
		{Spec{Name: NameAdaptiveP, PMax: 9}, 8, 4, "p-max"},
		{Spec{Name: NameAdaptiveP, PMin: 5, PMax: 6}, 8, 4, "outside bounds"},
		{Spec{Name: NameAdaptiveP, PMin: 4, PMax: 3}, 8, 4, "above p-max"},
		{Spec{Name: NameAdaptiveP, Window: -1}, 8, 4, "window"},
	} {
		if err := bad.spec.Validate(bad.n, bad.p); err == nil {
			t.Errorf("Validate(%+v, n=%d, p=%d) accepted, want %s error", bad.spec, bad.n, bad.p, bad.wantErr)
		}
	}
	// static and straggler-bias ignore the bounds entirely.
	if err := (Spec{Name: NameStatic, PMin: 99}).Validate(4, 2); err != nil {
		t.Fatalf("static spec rejected: %v", err)
	}
	if !(Spec{Name: NameStatic}).Enabled() || (Spec{}).Enabled() {
		t.Fatal("Enabled misreports")
	}
}

func TestStaticDecideMatchesDefault(t *testing.T) {
	p, err := New(Spec{Name: NameStatic}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for alive := 1; alive <= 8; alive++ {
		d := p.Decide(Inputs{ConfigP: 4, Alive: alive})
		want := 4
		if alive < want {
			want = alive
		}
		if d.P != want || d.Alpha != 0 || d.Bias != nil {
			t.Fatalf("static Decide(alive=%d) = %+v, want P=%d FIFO", alive, d, want)
		}
	}
}

// TestDecideBoundsProperty: across random signal streams and liveness,
// every policy's chosen P stays within [PMin, PMax] and never exceeds the
// alive worker count (the satellite-1 bound property).
func TestDecideBoundsProperty(t *testing.T) {
	const n, configP, pmin, pmax = 8, 4, 2, 6
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, name := range []string{NameStatic, NameAdaptiveP, NameStragglerBias} {
			pol, err := New(Spec{Name: name, PMin: pmin, PMax: pmax, Window: 3}, n, configP)
			if err != nil {
				t.Fatal(err)
			}
			now := 0.0
			alive := make([]bool, n)
			for i := range alive {
				alive[i] = true
			}
			aliveN := n
			formed := 0
			for step := 0; step < 300; step++ {
				w := rng.Intn(n)
				now += rng.Float64() * 3
				pol.OnSignal(w, step, now)
				if rng.Intn(10) == 0 && aliveN > 2 {
					k := rng.Intn(n)
					if alive[k] {
						alive[k] = false
						aliveN--
					}
				}
				qn := rng.Intn(aliveN + 1)
				queue := make([]QueuedSignal, qn)
				for i := range queue {
					queue[i] = QueuedSignal{Worker: i, Iter: step, Staleness: rng.Intn(3)}
				}
				d := pol.Decide(Inputs{
					Now: now, ConfigP: configP,
					Alive: aliveN, AliveMask: alive,
					GroupsFormed: formed, Queue: queue,
				})
				if d.P > pmax {
					t.Fatalf("%s: P=%d above PMax=%d", name, d.P, pmax)
				}
				if d.P > aliveN {
					t.Fatalf("%s: P=%d above alive=%d", name, d.P, aliveN)
				}
				if d.P < pmin && d.P != aliveN && name == NameAdaptiveP {
					t.Fatalf("%s: P=%d below PMin=%d with %d alive", name, d.P, pmin, aliveN)
				}
				if rng.Intn(2) == 0 {
					formed++
				}
			}
		}
	}
}

func TestStragglerBiasOrdering(t *testing.T) {
	pol, err := New(Spec{Name: NameStragglerBias}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	queue := []QueuedSignal{
		{Worker: 0, Staleness: 0},
		{Worker: 1, Staleness: 2},
		{Worker: 2, Staleness: 1},
		{Worker: 3, Staleness: 2},
	}
	d := pol.Decide(Inputs{ConfigP: 3, Alive: 6, Queue: queue})
	// Staleness descending, FIFO among ties: worker 1 (s=2), worker 3
	// (s=2, later), worker 2 (s=1), worker 0 (s=0).
	want := []int{1, 3, 2, 0}
	if !reflect.DeepEqual(d.Bias, want) {
		t.Fatalf("bias = %v, want %v", d.Bias, want)
	}

	// All-equal staleness: the bias must be the identity (no deviation
	// from FIFO, keeping homogeneous runs bit-identical).
	for i := range queue {
		queue[i].Staleness = 1
	}
	d = pol.Decide(Inputs{ConfigP: 3, Alive: 6, Queue: queue})
	if !reflect.DeepEqual(d.Bias, []int{0, 1, 2, 3}) {
		t.Fatalf("tie bias = %v, want identity", d.Bias)
	}
}

// feedCadence drives one signal round per worker with per-worker periods,
// then reports the policy's decision after enough formations to trigger a
// re-decision.
func feedCadence(t *testing.T, pol Policy, n, rounds int, period func(w int) float64) {
	t.Helper()
	now := 0.0
	for r := 1; r <= rounds; r++ {
		for w := 0; w < n; w++ {
			pol.OnSignal(w, r, now+float64(r)*period(w))
		}
	}
}

func TestAdaptiveShrinksAndGrows(t *testing.T) {
	const n, configP = 8, 4
	pol, err := New(Spec{Name: NameAdaptiveP, PMin: 2, PMax: 4, Window: 2}, n, configP)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	decide := func(formed int) int {
		d := pol.Decide(Inputs{ConfigP: configP, Alive: n, AliveMask: alive, GroupsFormed: formed})
		return d.P
	}

	// Dispersed cadence: worker 7 runs 2x slower than the rest.
	feedCadence(t, pol, n, 10, func(w int) float64 {
		if w == 7 {
			return 2.0
		}
		return 1.0
	})
	if got := decide(2); got != 3 {
		t.Fatalf("after dispersed cadence: P=%d, want one shrink step to 3", got)
	}
	if got := decide(4); got != 2 {
		t.Fatalf("second window: P=%d, want 2", got)
	}
	if got := decide(6); got != 2 {
		t.Fatalf("PMin floor: P=%d, want 2", got)
	}

	// Regime switch to uniform cadence: the EMA converges and P grows back.
	a := pol.(*adaptive)
	for i := range a.gap {
		a.gap[i] = 1.0 // uniform: dispersion 1.0 <= adaptLo
	}
	if got := decide(8); got != 3 {
		t.Fatalf("after re-convergence: P=%d, want grow to 3", got)
	}
	if got := decide(10); got != 4 {
		t.Fatalf("PMax ceiling approach: P=%d, want 4", got)
	}
	if got := decide(12); got != 4 {
		t.Fatalf("PMax ceiling: P=%d, want 4", got)
	}
}

// TestAdaptiveTailGuard pins the adaptCap behavior: once the slowest
// worker's cadence blows past the cap (heavy-tail regime, e.g. a 5×
// production straggler), shrinking is counterproductive — FIFO formation
// already routes around the straggler — so the policy walks P back
// toward the configured size instead of riding the floor.
func TestAdaptiveTailGuard(t *testing.T) {
	const n, configP = 8, 4
	pol, err := New(Spec{Name: NameAdaptiveP, PMin: 2, PMax: 4, Window: 2}, n, configP)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	decide := func(formed int) int {
		return pol.Decide(Inputs{ConfigP: configP, Alive: n, AliveMask: alive, GroupsFormed: formed}).P
	}

	// Start from a shrunken state (mild skew already reacted to), then
	// switch worker 7 to an extreme 5× tail: P must recover, not shrink.
	a := pol.(*adaptive)
	a.cur = 2
	for i := range a.gap {
		a.gap[i] = 1.0
	}
	a.gap[7] = 5.0
	if got := decide(2); got != 3 {
		t.Fatalf("extreme tail: P=%d, want recovery step to 3", got)
	}
	if got := decide(4); got != 4 {
		t.Fatalf("extreme tail second window: P=%d, want 4", got)
	}
	// At the configured size the guard holds rather than shrinking again.
	if got := decide(6); got != 4 {
		t.Fatalf("extreme tail at configured P: P=%d, want hold at 4", got)
	}
}

func TestAdaptiveHoldsWithoutEvidence(t *testing.T) {
	pol, err := New(Spec{Name: NameAdaptiveP, Window: 1}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Clock-less caller: every signal at now=0 → no positive gaps → hold.
	for r := 0; r < 20; r++ {
		for w := 0; w < 4; w++ {
			pol.OnSignal(w, r, 0)
		}
		if d := pol.Decide(Inputs{ConfigP: 3, Alive: 4, GroupsFormed: r}); d.P != 3 {
			t.Fatalf("clock-less round %d: P=%d, want configured 3", r, d.P)
		}
	}
}
