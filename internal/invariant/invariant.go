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
// topologies, and anything implementing Checkable). Checks are read-only —
// the checker never advances, syncs, or otherwise mutates a substrate — so
// an armed run is behaviourally identical to an unarmed one.
package invariant

import (
	"fmt"
	"math"
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

// serverTrack is the checker's last observation of one server, used to
// validate the next one against it.
type serverTrack struct {
	state   server.State
	power   float64
	energyJ float64
	boots   int
	at      time.Duration // server's LastSyncAt at observation
}

// Checker accumulates invariant violations across every engine it is
// attached to. A checker is owned by a single run (one experiment × one
// seed) and is not safe for concurrent use — the parallel harness gives
// each job its own.
type Checker struct {
	max        int
	violations []Violation
	servers    map[*server.Server]*serverTrack
	// flows backs the power tree checkTopology evaluates, reused across
	// checks so an armed run does not rebuild the tree on the heap.
	flows []power.Flow
}

// NewChecker builds an armed checker.
func NewChecker() *Checker {
	return &Checker{max: 16, servers: make(map[*server.Server]*serverTrack)}
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

// Violations returns the accumulated violations (shared slice: do not
// mutate). Collection stops after an internal cap so a broken invariant in
// a hot loop cannot flood memory.
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns nil when no invariant was violated, otherwise an error whose
// chain starts with the first (named) violation.
func (c *Checker) Err() error {
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

// checkFleet validates per-server invariants and the fleet's aggregate
// accounting: state counts partition the fleet, and the committed count
// matches its definition.
func (c *Checker) checkFleet(now time.Duration, f *core.Fleet) {
	var off, booting, active, shutting int
	for _, s := range f.Servers() {
		c.checkServer(now, s)
		switch s.State() {
		case server.StateOff:
			off++
		case server.StateBooting:
			booting++
		case server.StateActive:
			active++
		case server.StateShuttingDown:
			shutting++
		}
	}
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
	// Cross-validate the fleet's incrementally maintained aggregates
	// (SoA power plane, running totals, per-group sums) against a full
	// recompute, so a mutation path that skipped its notification — or
	// float drift escaping the rebase policy — fails loudly.
	if err := f.VerifyAggregates(); err != nil {
		c.report("fleet-aggregates", now, "%v", err)
	}
}

// checkServer validates one server's state value, lifecycle transition
// since the last observation, utilization range, power bounds, and the
// energy accumulator against the integral of the observed power history.
// The check is read-only: it reconciles against the server's own last
// sync instant instead of forcing one.
func (c *Checker) checkServer(now time.Duration, s *server.Server) {
	st := s.State()
	cfg := s.Config()

	switch st {
	case server.StateOff, server.StateBooting, server.StateActive, server.StateShuttingDown:
	default:
		c.report("server-state", now, "%s: unknown state %v", cfg.Name, st)
	}

	u := s.Utilization()
	if u < 0 || u > 1 {
		c.report("server-utilization", now, "%s: utilization %v out of [0,1]", cfg.Name, u)
	}
	if st != server.StateActive && u != 0 {
		c.report("server-utilization", now, "%s: utilization %v while %v", cfg.Name, u, st)
	}

	p := s.Power()
	if math.IsNaN(p) || p < 0 || p > cfg.PeakPower*(1+1e-9) {
		c.report("server-power-bounds", now, "%s: power %v W outside [0, peak %v W]", cfg.Name, p, cfg.PeakPower)
	}
	if st == server.StateOff && p != 0 {
		c.report("server-power-bounds", now, "%s: draws %v W while off", cfg.Name, p)
	}

	ts := s.LastSyncAt()
	en := s.EnergyJ()
	boots := s.Boots()
	tr, seen := c.servers[s]
	if !seen {
		tr = &serverTrack{}
		c.servers[s] = tr
	} else {
		if !legalTransition(tr.state, st) {
			c.report("server-legal-transition", now, "%s: illegal transition %v -> %v", cfg.Name, tr.state, st)
		}
		if ts < tr.at {
			c.report("server-energy-integral", now, "%s: sync time moved backwards %v -> %v", cfg.Name, tr.at, ts)
		} else {
			bootDelta := boots - tr.boots
			if bootDelta < 0 {
				c.report("server-legal-transition", now, "%s: boot counter decreased %d -> %d", cfg.Name, tr.boots, boots)
				bootDelta = 0
			}
			expected := tr.energyJ + tr.power*(ts-tr.at).Seconds() + float64(bootDelta)*cfg.BootEnergy
			tol := energyAbsTolJ + energyRelTol*math.Abs(expected)
			if math.Abs(en-expected) > tol {
				c.report("server-energy-integral", now,
					"%s: energy %v J != integral of sampled power %v J (Δ %v J over %v)",
					cfg.Name, en, expected, en-expected, ts-tr.at)
			}
			if en < tr.energyJ {
				c.report("server-energy-integral", now, "%s: energy decreased %v -> %v J", cfg.Name, tr.energyJ, en)
			}
		}
	}
	tr.state, tr.power, tr.energyJ, tr.boots, tr.at = st, p, en, boots, ts
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
func (c *Checker) checkTopology(now time.Duration, t *power.Topology) {
	flow := t.Feed.EvaluateInto(&c.flows)
	strict := t.Oversubscription <= 1
	c.walkFlow(now, strict, flow)
}

func (c *Checker) walkFlow(now time.Duration, strict bool, f power.Flow) {
	if math.IsNaN(f.OutW) || f.OutW < 0 || math.IsNaN(f.InW) || f.InW < f.OutW {
		c.report("power-flow-sane", now, "%s[%s]: out %v W in %v W", f.Name, f.Kind, f.OutW, f.InW)
	}
	if strict && f.Overloaded {
		c.report("power-tier-capacity", now, "%s[%s]: output %v W over rating (util %.1f%%) without oversubscription",
			f.Name, f.Kind, f.OutW, f.Utilization*100)
	}
	if strict && f.SurgeExceeded {
		c.report("power-tier-capacity", now, "%s[%s]: output %v W over surge ceiling without oversubscription",
			f.Name, f.Kind, f.OutW)
	}
	for _, ch := range f.Children {
		c.walkFlow(now, strict, ch)
	}
}
