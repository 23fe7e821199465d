// Package controller implements the paper's P-Reduce controller (Fig. 6): a
// signal queue collecting ready messages in FIFO order, a group filter that
// pops P signals and applies group-frozen avoidance over a sync-graph of
// recent groups and the pairwise contact ages, a weight generator producing
// constant or staleness-aware dynamic aggregation weights, and the group
// broadcaster (the Group values returned to the runtime). It keeps no
// history beyond what formation reads: E[W_k] is folded from a run's group
// log, not from controller state. The controller never touches model
// parameters or gradients — its messages are a few bytes, exactly as §4
// requires.
package controller

import (
	"fmt"

	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// Config describes a controller.
type Config struct {
	N int // world capacity (maximum rank count)
	P int // group size, 2 ≤ P ≤ N
	// Initial is the number of ranks that are members at startup; ranks
	// [Initial, N) are capacity held for elastic scale-out joins. Zero
	// selects N (a fixed-size world, the pre-elastic behavior).
	Initial int
	// AdaptiveP re-decides the group size between 2 and P from the
	// workers' signal cadence (adaptive.go) instead of keeping it at P.
	AdaptiveP bool
	// Weighting selects constant (1/P) or dynamic (EMA staleness) weights.
	Weighting Weighting
	// Approx selects how dynamic weighting fills missing relative-iteration
	// slots; the default InitialModel is the paper's conservative rule.
	Approx ApproxRule
	// DisableGroupFilter turns group-frozen avoidance off (ablation only).
	DisableGroupFilter bool
	// Zones optionally assigns each worker to a zone (geo-distributed data
	// centers). With ZoneAffinity set, the group filter prefers forming
	// groups within one zone — cheap intra-DC collectives — while the
	// group-frozen avoidance still periodically forces cross-zone groups,
	// keeping the sync-graph connected so updates flow between zones.
	Zones        []int
	ZoneAffinity bool
}

// emaDecay is the EMA decay of dynamic weighting.
const emaDecay = 0.6

// MinWindow returns ⌈(n−1)/(p−1)⌉, the smallest history window that can
// witness a connected sync-graph.
func MinWindow(n, p int) int {
	return (n - 2 + p - 1) / (p - 1) // ceil((n-1)/(p-1))
}

// minGroup is the smallest group the config can form. The sync-graph
// history length T is MinWindow(N, minGroup()): the paper's minimum, below
// which disconnection cannot be distinguished from an under-filled window
// (§4), at every group size the controller may choose.
func (c Config) minGroup() int {
	if c.AdaptiveP {
		return adaptPMin
	}
	return c.P
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("controller: need N >= 2 workers, got %d", c.N)
	case c.P < 2 || c.P > c.N:
		return fmt.Errorf("controller: need 2 <= P <= N, got P=%d N=%d", c.P, c.N)
	case c.Initial < 0 || c.Initial > c.N:
		return fmt.Errorf("controller: need 0 <= Initial <= N, got Initial=%d N=%d", c.Initial, c.N)
	case c.Initial != 0 && c.Initial < 2:
		return fmt.Errorf("controller: need Initial >= 2 members at startup, got %d", c.Initial)
	case c.ZoneAffinity && len(c.Zones) != c.N:
		return fmt.Errorf("controller: zone affinity needs %d zone assignments, got %d", c.N, len(c.Zones))
	case !c.ZoneAffinity && len(c.Zones) != 0 && len(c.Zones) != c.N:
		return fmt.Errorf("controller: %d zone assignments for %d workers", len(c.Zones), c.N)
	}
	if c.ZoneAffinity {
		// Every zone must be able to fill a group on its own, or its members
		// would starve waiting for same-zone partners.
		pop := map[int]int{}
		for _, z := range c.Zones {
			pop[z]++
		}
		for z, n := range pop {
			if n < c.P {
				return fmt.Errorf("controller: zone %d has %d workers, need >= P=%d for affinity", z, n, c.P)
			}
		}
	}
	return nil
}

// Signal is one worker's ready message. Iter is the worker's current
// iteration number; constant weighting ignores it. Now optionally carries
// the caller's clock (wall or virtual seconds) and feeds liveness tracking;
// zero is fine when staleness detection is unused.
type Signal struct {
	Worker int
	Iter   int
	Now    float64
	// Epoch is the sender's world-view epoch. Zero means unversioned
	// (always accepted — the pre-elastic wire format); a nonzero epoch
	// must match the controller's current epoch or Ready rejects the
	// signal with ErrStaleEpoch, without condemning the sender.
	Epoch uint64
}

// Group is the controller's reply to the members of a formed group.
type Group struct {
	// Members lists the worker ids in pop order.
	Members []int
	// Iters holds each member's reported iteration, aligned with Members.
	Iters []int
	// Weights holds each member's aggregation weight, aligned with Members.
	Weights []float64
	// InitWeight is the weight on the shared initial model x₁ under the
	// InitialModel approximation rule; zero otherwise.
	InitWeight float64
	// Iter is the group's maximum iteration number. After aggregating, every
	// member sets its iteration counter to Iter ("their models are the
	// latest", §3.3.3).
	Iter int
	// Bridged reports that the group filter rewrote this group to reconnect
	// a frozen sync-graph.
	Bridged bool
	// Epoch is the controller's world-view epoch at formation. Members
	// echo it in subsequent signals so membership changes invalidate
	// stale world views deterministically.
	Epoch uint64
}

// Stats summarizes controller activity.
type Stats struct {
	GroupsFormed  int
	Interventions int // groups rewritten by frozen avoidance
	Failures      int // workers declared dead (ReportFailure)
	GroupsAborted int // groups torn down because a member died mid-collective
	Joins         int // ranks admitted by elastic scale-out
	Drains        int // ranks that entered graceful drain
	Decommissions int // drained ranks that completed their hand-off
	StaleEpochs   int // ready signals rejected for a stale epoch
}

// Controller is the P-Reduce controller. It is not safe for concurrent use;
// callers (the simulator's event loop or the live runtime's accept loop)
// serialize access.
type Controller struct {
	cfg    Config
	queue  []Signal
	queued []bool // queued[w] reports worker w has a signal in the queue
	graph  *SyncGraph
	stats  Stats

	// Liveness: alive[w] reports worker w is believed up. The controller
	// is told (ReportFailure); detecting silence is the job of the
	// runtime that owns the clock and the connections.
	alive  []bool
	aliveN int

	// Elastic membership: member[w] reports rank w belongs to the current
	// world view (ranks >= cfg.Initial start outside it and Join later);
	// draining[w] marks a member finishing its in-flight group before a
	// graceful hand-off. epoch is the world-view version, bumped by every
	// membership change (Join/Drain/Decommission/Fail) and stamped
	// into formed groups so stale views are rejected deterministically.
	// activeMask is Decide/filter scratch: member ∧ alive ∧ ¬draining.
	member     []bool
	draining   []bool
	epoch      uint64
	activeMask []bool

	// lastTog[i][j] is the group sequence number at which i and j last
	// synced together (-1: never), the groups-since-last-contact matrix
	// group-frozen avoidance bounds.
	lastTog [][]int

	// adapt sizes groups under Config.AdaptiveP; nil keeps P fixed.
	adapt *adaptive

	// Tracer and instruments are pure wiring.
	tracer *trace.Tracer
	ins    *metrics.Instruments
}

// New returns a controller for cfg.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Initial == 0 {
		cfg.Initial = cfg.N
	}
	c := &Controller{
		cfg:        cfg,
		queued:     make([]bool, cfg.N),
		graph:      NewSyncGraph(cfg.N, MinWindow(cfg.N, cfg.minGroup())),
		alive:      make([]bool, cfg.N),
		aliveN:     cfg.Initial,
		member:     make([]bool, cfg.N),
		draining:   make([]bool, cfg.N),
		epoch:      1,
		activeMask: make([]bool, cfg.N),
	}
	for i := 0; i < cfg.Initial; i++ {
		c.alive[i] = true
		c.member[i] = true
	}
	if cfg.AdaptiveP {
		c.adapt = newAdaptive(cfg.N, cfg.P)
	}
	c.lastTog = make([][]int, cfg.N)
	for i := range c.lastTog {
		c.lastTog[i] = make([]int, cfg.N)
		for j := range c.lastTog[i] {
			c.lastTog[i][j] = -1
		}
	}
	return c, nil
}

// SetTracer attaches a trace recorder for controller decision events
// (ready signals with queue depth, group formation with per-member
// staleness, frozen-avoidance triggers, liveness transitions). A nil
// tracer disables recording.
func (c *Controller) SetTracer(t *trace.Tracer) { c.tracer = t }

// SetInstruments attaches live instruments for the two facts no trace
// event carries: the sync-graph gauges and the latest adaptive group size.
// Everything else reaches them through the tracer's sink. Attaching
// instruments enables the per-group connectivity gauge computation
// (O(N²)), so leave them nil in tight parameter sweeps.
func (c *Controller) SetInstruments(in *metrics.Instruments) { c.ins = in }

// Stats returns activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// IsQueued reports whether worker currently has a ready signal in the queue.
// The live service uses it to recognize a retransmitted ready signal (the
// worker re-sent because its reply had not come yet) as distinct from a
// duplicate.
func (c *Controller) IsQueued(worker int) bool {
	return worker >= 0 && worker < c.cfg.N && c.queued[worker]
}

// Ready accepts a worker's ready signal and returns the groups formed as a
// result (zero or one under normal operation). It rejects out-of-range
// workers, non-members, drained workers, stale-epoch signals (without
// condemning the sender — see ErrStaleEpoch), and duplicate signals from a
// worker that is already queued: a worker sends exactly one ready per
// iteration and blocks for its group.
func (c *Controller) Ready(s Signal) ([]Group, error) {
	if s.Worker < 0 || s.Worker >= c.cfg.N {
		return nil, fmt.Errorf("controller: worker %d out of range [0,%d)", s.Worker, c.cfg.N)
	}
	if !c.member[s.Worker] {
		return nil, fmt.Errorf("controller: worker %d: %w", s.Worker, ErrNotMember)
	}
	if !c.alive[s.Worker] {
		return nil, fmt.Errorf("controller: worker %d is marked dead", s.Worker)
	}
	if c.draining[s.Worker] {
		return nil, fmt.Errorf("controller: worker %d: %w", s.Worker, ErrDraining)
	}
	if s.Epoch != 0 && s.Epoch != c.epoch {
		c.stats.StaleEpochs++
		c.tracer.Instant(trace.KEpochStale, int32(s.Worker), int32(s.Iter), int64(s.Epoch), int64(c.epoch))
		return nil, fmt.Errorf("controller: worker %d signaled epoch %d, world is at %d: %w",
			s.Worker, s.Epoch, c.epoch, ErrStaleEpoch)
	}
	if c.queued[s.Worker] {
		return nil, fmt.Errorf("controller: worker %d already has a queued signal", s.Worker)
	}
	if c.adapt != nil {
		c.adapt.onSignal(s.Worker, s.Now)
	}
	c.queue = append(c.queue, s)
	c.queued[s.Worker] = true
	c.tracer.Instant(trace.KReady, int32(s.Worker), int32(s.Iter), int64(len(c.queue)), 0)
	return c.drainGroups(), nil
}

// drainGroups forms as many groups as the queue currently supports. Under
// AdaptiveP a size that differs from fixed P's is recorded as a
// KPolicyDecision trace instant.
func (c *Controller) drainGroups() []Group {
	var groups []Group
	for {
		p := c.groupSize()
		if c.adapt != nil {
			def := p
			p = c.adapt.size(c.stats.GroupsFormed, c.refreshActiveMask(), c.activeMask)
			if p != def {
				c.tracer.Instant(trace.KPolicyDecision, trace.ControllerTrack, -1, int64(p), int64(def))
			}
			// A side call, not an event: the latest size, deviating or not.
			c.ins.RecordPolicyDecision(p, p != def)
		}
		if p < 2 || len(c.queue) < p {
			break
		}
		g, ok := c.formGroup(p)
		if !ok {
			break
		}
		groups = append(groups, g)
	}
	return groups
}

// groupSize returns the effective group size: the configured P, shrunk to
// the active worker count (members that are alive and not draining) so the
// controller keeps forming groups after failures and drains (§4: "the
// controller can simply exclude failed workers from future groups").
func (c *Controller) groupSize() int {
	if n := c.ActiveCount(); n < c.cfg.P {
		return n
	}
	return c.cfg.P
}

// formGroup pops p signals (FIFO), applies group-frozen avoidance, records
// the group, and generates its weights. It returns ok=false when the
// filter defers formation to wait for a bridging signal.
func (c *Controller) formGroup(p int) (Group, bool) {
	bridged := false

	// Group-frozen avoidance (§4): with a full window and a disconnected
	// sync-graph, the filter forces the next group to span components. If
	// the FIFO candidate sits inside one component, it swaps in a waiting
	// signal from another component; if none is waiting, it defers the group
	// until one arrives. Deferral cannot deadlock: workers outside the
	// candidate's component are either computing or aggregating and always
	// send their next ready signal. Connectivity is judged over the active
	// worker set only — dead, draining, and departed workers cannot be
	// bridged to.
	c.refreshActiveMask()
	if !c.cfg.DisableGroupFilter && c.graph.Full() && !c.graph.ConnectedAmong(c.activeMask) {
		comp := c.graph.Components()
		if sameComponent(c.queue[:p], comp) {
			home := comp[c.queue[0].Worker]
			bridgeAt := -1
			for i := p; i < len(c.queue); i++ {
				if comp[c.queue[i].Worker] != home {
					bridgeAt = i
					break
				}
			}
			if bridgeAt < 0 {
				c.tracer.Instant(trace.KDeferred, trace.ControllerTrack, -1, int64(len(c.queue)), 0)
				return Group{}, false // defer until a bridging signal arrives
			}
			c.queue[p-1], c.queue[bridgeAt] = c.queue[bridgeAt], c.queue[p-1]
			bridged = true
			c.stats.Interventions++
		}
	}

	// Zone affinity: when the graph is healthy, form groups inside one zone
	// so the collective stays inside one data center, deferring until some
	// zone has P signals queued (always resolvable: every zone has ≥ P
	// members, and queued workers' zone-mates are computing and will
	// signal). Bridged groups are exempt — they exist to cross zones.
	if c.cfg.ZoneAffinity && !bridged {
		if !c.gatherZone(p) {
			return Group{}, false
		}
	}

	members := make([]int, p)
	iters := make([]int, p)
	maxIter := 0
	for i := 0; i < p; i++ {
		s := c.queue[i]
		members[i] = s.Worker
		iters[i] = s.Iter
		if s.Iter > maxIter {
			maxIter = s.Iter
		}
		c.queued[s.Worker] = false
	}
	c.queue = append(c.queue[:0], c.queue[p:]...)

	// Sync-graph window and contact ages.
	c.graph.Add(members)
	c.stats.GroupsFormed++
	groupSeq := c.stats.GroupsFormed
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			c.lastTog[members[i]][members[j]] = groupSeq
			c.lastTog[members[j]][members[i]] = groupSeq
		}
	}

	// Telemetry: per-member staleness at formation (the group maximum
	// minus the member's reported iteration — the quantity the dynamic
	// weights discount), from which the instruments fold the group's
	// release, and the connectivity gauges frozen avoidance bounds.
	if c.tracer != nil {
		c.tracer.Instant(trace.KGroupFormed, trace.ControllerTrack, int32(maxIter), int64(groupSeq), int64(p))
		for i := 0; i < p; i++ {
			c.tracer.Instant(trace.KStaleness, int32(members[i]), int32(iters[i]), int64(maxIter-iters[i]), int64(groupSeq))
		}
		if bridged {
			c.tracer.Instant(trace.KBridged, trace.ControllerTrack, int32(maxIter), int64(groupSeq), 0)
		}
	}
	if c.ins != nil {
		// A side call, not an event: an O(N²) read of the contact matrix.
		c.ins.SetSyncGauges(c.MaxContactAge(), c.graph.NumComponents())
	}

	g := Group{Members: members, Iters: iters, Iter: maxIter, Bridged: bridged, Epoch: c.epoch}
	switch c.cfg.Weighting {
	case Dynamic:
		g.Weights, g.InitWeight = DynamicWeights(iters, emaDecay, c.cfg.Approx)
	default:
		g.Weights = ConstantWeights(p)
	}
	return g, true
}

// gatherZone stably moves p same-zone signals to the front of the queue,
// choosing the zone of the earliest signal whose zone has p signals waiting.
// It reports whether any zone could fill a group.
func (c *Controller) gatherZone(p int) bool {
	counts := map[int]int{}
	for _, s := range c.queue {
		counts[c.cfg.Zones[s.Worker]]++
	}
	zone, found := 0, false
	for _, s := range c.queue {
		if z := c.cfg.Zones[s.Worker]; counts[z] >= p {
			zone, found = z, true
			break
		}
	}
	if !found {
		return false
	}
	var same, other []Signal
	for _, s := range c.queue {
		if len(same) < p && c.cfg.Zones[s.Worker] == zone {
			same = append(same, s)
		} else {
			other = append(other, s)
		}
	}
	c.queue = c.queue[:0]
	c.queue = append(c.queue, same...)
	c.queue = append(c.queue, other...)
	return true
}

func sameComponent(signals []Signal, comp []int) bool {
	for _, s := range signals[1:] {
		if comp[s.Worker] != comp[signals[0].Worker] {
			return false
		}
	}
	return true
}
