// Package invariant is a pluggable runtime checker for the physical laws
// the simulation must never break, no matter which policy is driving it:
// power draw stays within provisioned tier capacity unless oversubscription
// is explicitly engaged (§3.1), energy accumulators equal the integral of
// sampled power, server state machines take only legal lifecycle
// transitions, room temperatures stay inside a physical envelope with CRAC
// setpoints clamped to their configured bounds, utilizations stay in
// [0, 1], and fleet accounting always balances.
//
// The checker rides the kernel's observation hooks: Attach registers an
// after-event callback on a sim.Engine, and after every fired event it
// scans the engine's registered components (fleets, cooling rooms, power
// topologies, and anything implementing Checkable). Rooms and checkables
// are checked in full after every event. A fleet is checked at
// O(changes): after each event the checker checks only the servers whose
// columns changed since its last check (core.Fleet.Changed) and compares
// its own per-state counts with the fleet's O(1) counters. The boots or
// shutdowns of one SetTarget call complete in one event, so the checker
// sees the whole batch's change set at once. Once every Size() events,
// a batch counting as one, and whenever Err or Violations is read, it
// sweeps every server of the fleet and cross-validates the fleet's
// derived columns and maintained aggregates against a full recompute. A
// power tree is read after every event but evaluated and walked only
// when its raw leaf readings, its node count or its strictness differ
// from its last walk, or when that walk found a violation; ratings and
// loss models are fixed at construction, so a skipped walk would have
// reported nothing. A server's name is formatted only for a report.
// Checks are read-only — the checker never advances, syncs, or otherwise
// mutates a substrate — so an armed run is behaviourally identical to an
// unarmed one.
package invariant

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
)

// Checkable lets any component participate in invariant checking without
// importing this package: implement the method and register the component
// with the engine. The structural interface is matched at check time.
type Checkable interface {
	// CheckInvariants reports a violated internal invariant at the given
	// virtual time, or nil when the component is consistent.
	CheckInvariants(now time.Duration) error
}

// Violation is one failed invariant. It implements error so a single
// violation can propagate as a named failure.
type Violation struct {
	// Rule names the invariant, e.g. "server-legal-transition".
	Rule string
	// At is the virtual time of detection.
	At time.Duration
	// Detail is a human-readable description of the failure.
	Detail string
}

// Error renders the violation as "invariant <rule> violated at <t>: …".
func (v Violation) Error() string {
	return fmt.Sprintf("invariant %s violated at %v: %s", v.Rule, v.At, v.Detail)
}

// Physical sanity envelope for room temperatures: anything outside is a
// runaway integration or NaN, not weather. Deliberately generous — the
// thermal-pathology experiments legitimately push inlets far beyond the
// ASHRAE band, and catching *policy* overheating is the job of the trip
// model, not this checker.
const (
	minSaneTempC = -50
	maxSaneTempC = 150
)

// Tolerances for the energy-integral check. The checker replays the exact
// multiply-add sequence the server's own integrator performs, so the two
// agree to the last bit in practice; the tolerance absorbs pathological
// associativity differences only.
const (
	energyRelTol  = 1e-9
	energyAbsTolJ = 1e-6
)

// reading is one observation of a server: everything the per-server
// rules read. checkServer takes it from a live server; tests fabricate
// readings that the server's own clamps would never produce.
type reading struct {
	// srv is the server read; its name is formatted only for a report.
	srv     *server.Server
	state   server.State
	util    float64
	powerW  float64
	energyJ float64
	boots   int
	at      time.Duration // the server's LastSyncAt
	// peakW and bootJ come from the server's configuration, which never
	// changes after server.New.
	peakW, bootJ float64
}

// serverTrack is the checker's last reading of one fleet slot, used to
// validate the next one against it.
type serverTrack struct {
	reading
	seen bool
}

// fleetTrack is the checker's history of one fleet: the last reading of
// every slot, the state counts those readings add up to, and how many
// change-set checks are left before the next full sweep.
type fleetTrack struct {
	fleet  *core.Fleet
	slots  []serverTrack
	counts [5]int // by stateIndex
	due    int
	// now is the time of the last check; a sweep on Err reports at it.
	now time.Duration
}

// topoTrack is what the checker's last walk of one power tree saw.
type topoTrack struct {
	// readings holds the raw leaf readings in evaluation order.
	readings []float64
	nodes    int
	strict   bool
	violated bool
}

// Checker accumulates invariant violations across every engine it is
// attached to. A checker is owned by a single run (one experiment × one
// seed) and is not safe for concurrent use — the parallel harness gives
// each job its own. It is the one reader of the change set of every
// fleet it checks.
type Checker struct {
	max        int
	violations []Violation
	fleets     map[*core.Fleet]*fleetTrack
	// order lists the fleets in first-check order, so sweeps on Err
	// report in a deterministic order.
	order []*fleetTrack
	// topos holds the last walk of every power tree checked.
	topos map[*power.Topology]*topoTrack
	// readings and flows back the leaf readings and the power tree
	// checkTopology reads and evaluates, reused across checks so an
	// armed run does not rebuild them on the heap.
	readings []float64
	flows    []power.Flow
}

// NewChecker builds an armed checker.
func NewChecker() *Checker {
	return &Checker{max: 16, fleets: make(map[*core.Fleet]*fleetTrack)}
}

// Attach arms the checker on an engine: after every fired event, every
// component registered with the engine is checked. Attach may be called
// on any number of engines; violations accumulate in one place.
func (c *Checker) Attach(e *sim.Engine) {
	e.AfterEvent(func(eng *sim.Engine) {
		if len(c.violations) >= c.max {
			return
		}
		now := eng.Now()
		for _, comp := range eng.Components() {
			c.CheckComponent(now, comp)
		}
	})
}

// CheckComponent runs every applicable rule against one component at the
// given virtual time. It is exported so tests and experiments can check
// components that never ride an engine (e.g. VM hosts in analytic
// placement studies).
func (c *Checker) CheckComponent(now time.Duration, comp any) {
	switch x := comp.(type) {
	case *core.Fleet:
		c.checkFleet(now, x)
	case *cooling.Room:
		c.checkRoom(now, x)
	case *power.Topology:
		c.checkTopology(now, x)
	}
	if ck, ok := comp.(Checkable); ok {
		if err := ck.CheckInvariants(now); err != nil {
			c.report("component-invariant", now, "%v", err)
		}
	}
}

// Violations sweeps every fleet the checker has seen and returns the
// accumulated violations (shared slice: do not mutate). Collection stops
// after an internal cap so a broken invariant in a hot loop cannot flood
// memory.
func (c *Checker) Violations() []Violation {
	c.sweepAll()
	return c.violations
}

// Err sweeps every fleet the checker has seen and returns nil when no
// invariant was violated, otherwise an error whose chain starts with the
// first (named) violation.
func (c *Checker) Err() error {
	c.sweepAll()
	switch len(c.violations) {
	case 0:
		return nil
	case 1:
		return c.violations[0]
	default:
		return fmt.Errorf("%w (and %d more violations)", c.violations[0], len(c.violations)-1)
	}
}

// report records one violation, respecting the cap.
func (c *Checker) report(rule string, at time.Duration, format string, args ...any) {
	if len(c.violations) >= c.max {
		return
	}
	c.violations = append(c.violations, Violation{Rule: rule, At: at, Detail: fmt.Sprintf(format, args...)})
}

// legalTransition is the server lifecycle table: Off→Booting→Active→
// ShuttingDown→Off, plus Booting→ShuttingDown (aborted boot),
// Active/Booting→Off (thermal trip), and self-loops.
func legalTransition(from, to server.State) bool {
	if from == to {
		return true
	}
	switch from {
	case server.StateOff:
		return to == server.StateBooting
	case server.StateBooting:
		return to == server.StateActive || to == server.StateShuttingDown || to == server.StateOff
	case server.StateActive:
		return to == server.StateShuttingDown || to == server.StateOff
	case server.StateShuttingDown:
		return to == server.StateOff
	default:
		return false
	}
}

// stateIndex buckets a lifecycle state for fleetTrack.counts: each legal
// state by its value (1–4), anything else in bucket 0.
func stateIndex(st server.State) int {
	if st < server.StateOff || st > server.StateShuttingDown {
		return 0
	}
	return int(st)
}

// checkFleet checks the servers that changed since the fleet's last
// check, then the fleet's state counts. The first check of a fleet, and
// every Size()-th after it, is a full sweep instead, which bounds the
// amortized sweep work at one server check per event.
func (c *Checker) checkFleet(now time.Duration, f *core.Fleet) {
	ft := c.fleets[f]
	if ft == nil {
		ft = &fleetTrack{fleet: f, slots: make([]serverTrack, f.Size())}
		c.fleets[f] = ft
		c.order = append(c.order, ft)
		f.TrackChanges()
	}
	ft.now = now
	if ft.due == 0 {
		c.sweep(ft)
		return
	}
	ft.due--
	for _, slot := range f.Changed() {
		c.checkSlot(ft, int(slot))
	}
	f.ResetChanged()
	c.checkCounts(ft)
}

// sweep checks every server of the fleet and its state counts, then
// cross-validates the fleet's derived columns and incrementally
// maintained aggregates (power column, running totals, per-group sums)
// against a full recompute, so an accounting bug — or float drift
// escaping the rebase policy — fails loudly.
func (c *Checker) sweep(ft *fleetTrack) {
	ft.due = len(ft.slots) - 1
	for slot := range ft.slots {
		c.checkSlot(ft, slot)
	}
	ft.fleet.ResetChanged()
	c.checkCounts(ft)
	if err := ft.fleet.VerifyAggregates(); err != nil {
		c.report("fleet-aggregates", ft.now, "%v", err)
	}
}

// sweepAll sweeps every fleet the checker has seen, at the time of its
// last check, so a report read after a run covers what the periodic
// sweep has not reached yet.
func (c *Checker) sweepAll() {
	for _, ft := range c.order {
		if len(c.violations) >= c.max {
			return
		}
		c.sweep(ft)
	}
}

// checkSlot checks the server in one fleet slot and moves the slot
// between the fleet's state counts.
func (c *Checker) checkSlot(ft *fleetTrack, slot int) {
	tr := &ft.slots[slot]
	if tr.seen {
		ft.counts[stateIndex(tr.state)]--
	}
	c.checkServer(ft.now, tr, ft.fleet.ServerAt(slot))
	ft.counts[stateIndex(tr.state)]++
}

// checkCounts validates the fleet's accounting against the checker's own
// state counts: the counts partition the fleet, and the committed and
// active counts match their definitions.
func (c *Checker) checkCounts(ft *fleetTrack) {
	f, now := ft.fleet, ft.now
	off := ft.counts[server.StateOff]
	booting := ft.counts[server.StateBooting]
	active := ft.counts[server.StateActive]
	shutting := ft.counts[server.StateShuttingDown]
	if total := off + booting + active + shutting; total != f.Size() {
		c.report("fleet-accounting", now,
			"state counts off=%d booting=%d active=%d shutting=%d sum to %d, fleet size %d",
			off, booting, active, shutting, total, f.Size())
	}
	if on := f.OnCount(); on != active+booting {
		c.report("fleet-accounting", now, "OnCount %d != active %d + booting %d", on, active, booting)
	}
	if a := f.ActiveCount(); a != active {
		c.report("fleet-accounting", now, "ActiveCount %d != counted active %d", a, active)
	}
}

// checkServer reads one server and checks the reading against the slot's
// last one. The check is read-only: it reconciles against the server's
// own last sync instant instead of forcing one.
func (c *Checker) checkServer(now time.Duration, tr *serverTrack, s *server.Server) {
	peakW, bootJ := tr.peakW, tr.bootJ
	if !tr.seen {
		cfg := s.Config()
		peakW, bootJ = cfg.PeakPower, cfg.BootEnergy
	}
	c.checkReading(now, tr, reading{
		srv:     s,
		state:   s.State(),
		util:    s.Utilization(),
		powerW:  s.Power(),
		energyJ: s.EnergyJ(),
		boots:   s.Boots(),
		at:      s.LastSyncAt(),
		peakW:   peakW,
		bootJ:   bootJ,
	})
}

// checkReading validates one server reading — state value, utilization
// range, power bounds and, against the previous reading, the lifecycle
// transition and the energy accumulator against the integral of the
// observed power history — and records it as the slot's last reading.
func (c *Checker) checkReading(now time.Duration, tr *serverTrack, r reading) {
	switch r.state {
	case server.StateOff, server.StateBooting, server.StateActive, server.StateShuttingDown:
	default:
		c.report("server-state", now, "%s: unknown state %v", r.srv.Name(), r.state)
	}

	if r.util < 0 || r.util > 1 {
		c.report("server-utilization", now, "%s: utilization %v out of [0,1]", r.srv.Name(), r.util)
	}
	if r.state != server.StateActive && r.util != 0 {
		c.report("server-utilization", now, "%s: utilization %v while %v", r.srv.Name(), r.util, r.state)
	}

	p := r.powerW
	if math.IsNaN(p) || p < 0 || p > r.peakW*(1+1e-9) {
		c.report("server-power-bounds", now, "%s: power %v W outside [0, peak %v W]", r.srv.Name(), p, r.peakW)
	}
	if r.state == server.StateOff && p != 0 {
		c.report("server-power-bounds", now, "%s: draws %v W while off", r.srv.Name(), p)
	}

	if tr.seen {
		if !legalTransition(tr.state, r.state) {
			c.report("server-legal-transition", now, "%s: illegal transition %v -> %v", r.srv.Name(), tr.state, r.state)
		}
		if r.at < tr.at {
			c.report("server-energy-integral", now, "%s: sync time moved backwards %v -> %v", r.srv.Name(), tr.at, r.at)
		} else {
			bootDelta := r.boots - tr.boots
			if bootDelta < 0 {
				c.report("server-legal-transition", now, "%s: boot counter decreased %d -> %d", r.srv.Name(), tr.boots, r.boots)
				bootDelta = 0
			}
			expected := tr.energyJ + tr.powerW*(r.at-tr.at).Seconds() + float64(bootDelta)*r.bootJ
			tol := energyAbsTolJ + energyRelTol*math.Abs(expected)
			if math.Abs(r.energyJ-expected) > tol {
				c.report("server-energy-integral", now,
					"%s: energy %v J != integral of sampled power %v J (Δ %v J over %v)",
					r.srv.Name(), r.energyJ, expected, r.energyJ-expected, r.at-tr.at)
			}
			if r.energyJ < tr.energyJ {
				c.report("server-energy-integral", now, "%s: energy decreased %v -> %v J", r.srv.Name(), tr.energyJ, r.energyJ)
			}
		}
	}
	tr.reading, tr.seen = r, true
}

// checkRoom validates the thermal model: CRAC setpoints clamped to their
// configured supply bounds, all temperatures finite and inside a physical
// sanity envelope, and heat loads non-negative.
func (c *Checker) checkRoom(now time.Duration, r *cooling.Room) {
	for ci := 0; ci < r.CRACs(); ci++ {
		cfg := r.UnitConfig(ci)
		sp := r.CRACSetpointC(ci)
		if math.IsNaN(sp) || sp < cfg.SupplyMinC-1e-9 || sp > cfg.SupplyMaxC+1e-9 {
			c.report("crac-setpoint-bounds", now, "%s: setpoint %v °C outside [%v, %v]",
				cfg.Name, sp, cfg.SupplyMinC, cfg.SupplyMaxC)
		}
		if t := r.CRACSupplyC(ci); !saneTemp(t) {
			c.report("room-envelope", now, "%s: supply %v °C outside physical envelope", cfg.Name, t)
		}
		if t := r.CRACReturnC(ci); !saneTemp(t) {
			c.report("room-envelope", now, "%s: return %v °C outside physical envelope", cfg.Name, t)
		}
	}
	for z := 0; z < r.Zones(); z++ {
		if t := r.ZoneInletC(z); !saneTemp(t) {
			c.report("room-envelope", now, "zone %s: inlet %v °C outside physical envelope", r.ZoneName(z), t)
		}
		if h := r.ZoneHeat(z); math.IsNaN(h) || h < 0 {
			c.report("room-heat-nonnegative", now, "zone %s: heat %v W", r.ZoneName(z), h)
		}
	}
	if l := r.CoolingLoadW(); math.IsNaN(l) || l < 0 {
		c.report("room-heat-nonnegative", now, "cooling load %v W", l)
	}
}

// saneTemp reports whether a temperature is finite and physically
// plausible for machine-room air.
func saneTemp(t float64) bool {
	return !math.IsNaN(t) && t > minSaneTempC && t < maxSaneTempC
}

// checkTopology evaluates the power tree and enforces tier capacity:
// with oversubscription ≤ 1 every tier was sized for worst case, so an
// overloaded or surge-exceeded node is a physics violation. With
// oversubscription engaged (> 1), overloads are the accepted risk the
// policy signed up for (§3.1) and only NaN/negative flows are flagged.
// Cap excursions are always allowed here — caps are advisory at the tree
// layer and enforcement is the macro layer's job.
//
// A clean tree whose leaf readings, node count and strictness match its
// last walk is not walked again: its flow would be the same, and a surge
// ceiling, the one parameter set after construction that the rules read,
// is at least the rating, so a clean tree cannot exceed it.
func (c *Checker) checkTopology(now time.Duration, t *power.Topology) {
	tt := c.topos[t]
	if tt == nil {
		if c.topos == nil { // most runs register no tree
			c.topos = make(map[*power.Topology]*topoTrack)
		}
		tt = &topoTrack{}
		c.topos[t] = tt
	}
	var nodes int
	c.readings, nodes = t.Feed.AppendLoads(c.readings[:0])
	strict := t.Oversubscription <= 1
	if !tt.violated && nodes == tt.nodes && strict == tt.strict &&
		slices.EqualFunc(c.readings, tt.readings, sameBits) {
		return
	}
	tt.readings = append(tt.readings[:0], c.readings...)
	tt.nodes, tt.strict = nodes, strict
	flow := t.Feed.EvaluateInto(&c.flows)
	tt.violated = c.walkFlow(now, strict, &flow)
}

// sameBits reports whether a and b are the same float bit for bit, so a
// NaN reading matches itself and -0 does not match 0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// walkFlow checks every node of an evaluated tree and reports whether
// any broke a rule, also past the violation cap.
func (c *Checker) walkFlow(now time.Duration, strict bool, f *power.Flow) bool {
	violated := false
	if math.IsNaN(f.OutW) || f.OutW < 0 || math.IsNaN(f.InW) || f.InW < f.OutW {
		c.report("power-flow-sane", now, "%s[%s]: out %v W in %v W", f.Name, f.Kind, f.OutW, f.InW)
		violated = true
	}
	if strict && f.Overloaded {
		c.report("power-tier-capacity", now, "%s[%s]: output %v W over rating (util %.1f%%) without oversubscription",
			f.Name, f.Kind, f.OutW, f.Utilization*100)
		violated = true
	}
	if strict && f.SurgeExceeded {
		c.report("power-tier-capacity", now, "%s[%s]: output %v W over surge ceiling without oversubscription",
			f.Name, f.Kind, f.OutW)
		violated = true
	}
	for i := range f.Children {
		if c.walkFlow(now, strict, &f.Children[i]) {
			violated = true
		}
	}
	return violated
}
