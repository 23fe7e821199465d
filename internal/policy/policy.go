// Package policy is the controller's pluggable group-formation policy
// engine: per formation event it picks the next group's size P, an
// optional membership bias (which queued signals to pull forward), and an
// optional dynamic-weight decay override, all from controller
// introspection data (queue contents with per-signal staleness and wait,
// liveness, formation count, clock). Policies are deterministic pure
// state machines — the same signal sequence always yields the same
// decision sequence — so simulated runs stay byte-reproducible.
//
// The package deliberately does not import internal/controller (the
// controller imports it); the Inputs struct carries everything a policy
// may read, and the controller clamps whatever comes back, so a buggy
// policy can degrade scheduling but never violate the grouping
// invariants (2 ≤ P ≤ alive workers, one signal per worker, FIFO
// service among un-biased signals).
//
// Three policies ship:
//
//   - static: today's behavior — P = min(configured P, alive workers),
//     FIFO membership, default decay. Attached to a controller it is
//     bit-identical to running with no policy at all; it exists so the
//     policy plumbing itself is covered by the metamorphic tests.
//   - adaptive-p: shrinks or grows P between configured bounds from the
//     per-worker signal-cadence dispersion (see adaptive.go). Under
//     heterogeneity, smaller groups stop fast workers from waiting on
//     shared-accelerator stragglers; under homogeneity the configured P
//     amortizes communication best.
//   - straggler-bias: keeps P static but stably reorders the queue so the
//     highest-staleness workers enter groups first, generalizing
//     group-frozen avoidance's "pull the estranged worker in" move.
//
// Decision paths are allocation-free and run in well under a microsecond
// (make bench gates this), so consulting a policy per formation event is
// invisible next to a single model average.
package policy

import "fmt"

// Shipped policy names, as accepted by Spec.Name and the -policy flags.
const (
	NameStatic        = "static"
	NameAdaptiveP     = "adaptive-p"
	NameStragglerBias = "straggler-bias"
)

// Spec selects and parameterizes a policy. The zero value means "no
// policy" (the controller runs its built-in static behavior with zero
// overhead).
type Spec struct {
	// Name is one of NameStatic, NameAdaptiveP, NameStragglerBias.
	Name string
	// PMin and PMax bound adaptive-p's group size. Zero values resolve to
	// 2 and the configured P respectively. Other policies ignore them.
	PMin, PMax int
	// Window is the number of formed groups between adaptive-p
	// re-decisions; zero resolves to DefaultWindow.
	Window int
}

// DefaultWindow is adaptive-p's re-decision interval in formed groups:
// long enough for every worker's cadence estimate to absorb a few
// samples, short enough to track a regime switch within tens of groups.
const DefaultWindow = 8

// Enabled reports whether the spec names a policy.
func (s Spec) Enabled() bool { return s.Name != "" }

// Resolve fills the spec's defaults for a run with configured group size
// configP: PMin 2, PMax configP, Window DefaultWindow. Resolve is
// idempotent.
func (s Spec) Resolve(configP int) Spec {
	if s.PMin == 0 {
		s.PMin = 2
	}
	if s.PMax == 0 {
		s.PMax = configP
	}
	if s.Window == 0 {
		s.Window = DefaultWindow
	}
	return s
}

// Validate reports whether the resolved spec is usable for an n-worker
// run with configured group size configP.
func (s Spec) Validate(n, configP int) error {
	switch s.Name {
	case NameStatic, NameStragglerBias:
		return nil
	case NameAdaptiveP:
		r := s.Resolve(configP)
		switch {
		case r.PMin < 2:
			return fmt.Errorf("policy: p-min %d below 2", r.PMin)
		case r.PMax > n:
			return fmt.Errorf("policy: p-max %d above worker count %d", r.PMax, n)
		case r.PMin > r.PMax:
			return fmt.Errorf("policy: p-min %d above p-max %d", r.PMin, r.PMax)
		case configP < r.PMin || configP > r.PMax:
			return fmt.Errorf("policy: configured P=%d outside bounds [%d,%d]", configP, r.PMin, r.PMax)
		case r.Window < 1:
			return fmt.Errorf("policy: window %d below 1", r.Window)
		}
		return nil
	}
	return fmt.Errorf("policy: unknown policy %q", s.Name)
}

// QueuedSignal is the policy's view of one waiting ready signal.
type QueuedSignal struct {
	Worker    int
	Iter      int
	Staleness int     // cluster max iteration minus Iter
	Wait      float64 // seconds the signal has been queued (0 if clocks are unused)
}

// Inputs is the controller introspection snapshot a policy decides from.
// The slices are the controller's own scratch storage, valid only for
// the duration of the Decide call: policies must not retain or mutate
// them.
type Inputs struct {
	// Now is the controller's latest clock reading (virtual seconds in
	// the simulator, wall seconds live; 0 if the caller sends no clocks).
	Now float64
	// ConfigP is the controller's configured group size (default resolved).
	ConfigP int
	// Alive is the number of workers currently believed up; AliveMask the
	// per-worker liveness vector (read-only).
	Alive     int
	AliveMask []bool
	// GroupsFormed counts groups formed so far.
	GroupsFormed int
	// Queue lists the waiting ready signals in FIFO order (read-only).
	Queue []QueuedSignal
}

// Decision is a policy's answer for the next formation event.
type Decision struct {
	// P is the group size to use. The controller clamps it to the alive
	// worker count; a value below 2 defers formation until more signals
	// or more workers arrive.
	P int
	// Alpha overrides the dynamic-weight decay for this group when in
	// (0,1); 0 keeps the default decay.
	Alpha float64
	// Bias, when non-nil, is a permutation of the queue indices giving
	// the preferred service order; the controller reorders the queue to
	// match before popping the first P. Nil keeps FIFO order. The slice
	// is the policy's scratch storage, valid until its next Decide.
	Bias []int
}

// Policy is a deterministic group-formation state machine. Decide is
// consulted once per formation attempt; OnSignal observes every accepted
// ready signal (the cadence feed). Implementations are not safe for
// concurrent use — the controller serializes access, like its own methods.
type Policy interface {
	Name() string
	OnSignal(worker, iter int, now float64)
	Decide(in Inputs) Decision
}

// New constructs the policy named by spec for an n-worker run with
// configured group size configP, resolving spec defaults first.
func New(spec Spec, n, configP int) (Policy, error) {
	if err := spec.Validate(n, configP); err != nil {
		return nil, err
	}
	spec = spec.Resolve(configP)
	switch spec.Name {
	case NameStatic:
		return &static{}, nil
	case NameAdaptiveP:
		return newAdaptive(spec, n, configP), nil
	case NameStragglerBias:
		return newStragglerBias(n), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q", spec.Name)
}

// static reproduces the controller's built-in behavior exactly:
// P = min(configured P, alive workers), FIFO membership, configured
// decay. Its decisions never deviate from the default, so a run with the
// static policy attached is bit-identical to a run with no policy.
type static struct{}

func (*static) Name() string                 { return NameStatic }
func (*static) OnSignal(_, _ int, _ float64) {}

func (*static) Decide(in Inputs) Decision {
	p := in.ConfigP
	if in.Alive < p {
		p = in.Alive
	}
	return Decision{P: p}
}

// stragglerBias keeps the static group size but stably reorders the
// queue by staleness, highest first, so chronically late workers are
// pulled into groups as soon as they signal instead of waiting out the
// FIFO — the same instinct as group-frozen avoidance's bridging swap,
// applied continuously. Ties keep FIFO order, so a homogeneous run
// (all staleness equal) never deviates from the default.
type stragglerBias struct {
	bias []int // reused Decision.Bias storage
}

func newStragglerBias(n int) *stragglerBias {
	return &stragglerBias{bias: make([]int, 0, n)}
}

func (*stragglerBias) Name() string                 { return NameStragglerBias }
func (*stragglerBias) OnSignal(_, _ int, _ float64) {}

func (s *stragglerBias) Decide(in Inputs) Decision {
	p := in.ConfigP
	if in.Alive < p {
		p = in.Alive
	}
	b := s.bias[:0]
	for i := range in.Queue {
		b = append(b, i)
	}
	// Stable insertion sort, staleness descending: strict > keeps equal
	// entries in FIFO order. Queues hold at most one signal per worker,
	// so this is O(N²) on tiny N — and allocation-free.
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && in.Queue[b[j]].Staleness > in.Queue[b[j-1]].Staleness; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
	s.bias = b
	return Decision{P: p, Bias: b}
}
