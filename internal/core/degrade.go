package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DegraderConfig shapes the MRM layer's graceful-degradation responses
// to infrastructure faults (§2's failure realities meeting Figure 4's
// coordination problem): emergency power caps when the feed loses
// redundancy and a thermal load-shedding ladder when cooling capacity
// drops. Last-good telemetry fallback when sensors go dark is a separate
// TelemetryGuard, which the fault-sensor supervisor builds directly.
type DegraderConfig struct {
	// CheckPeriod is the degradation control period (default 1 min).
	CheckPeriod time.Duration
	// ShedInletC engages the thermal ladder when the hottest zone inlet
	// exceeds it while CRAC capacity is reduced (default 31 °C — above
	// the ASHRAE envelope, below the protective trip).
	ShedInletC float64
	// RecoverInletC releases the ladder when the hottest inlet drops
	// below it (hysteresis; default 27 °C).
	RecoverInletC float64
	// EmergencyCapFrac derates each rack cap to this fraction of its
	// rating while the facility runs without feed redundancy
	// (default 0.7).
	EmergencyCapFrac float64
}

const (
	// consolidateFrac is the fraction of active servers the ladder's
	// consolidation stage sheds.
	consolidateFrac = 0.25
	// survivalFrac is the fleet fraction kept on when the UPS store
	// empties with no generator; everything else is shed immediately.
	survivalFrac = 0.1
)

// withDefaults fills zero fields.
func (c DegraderConfig) withDefaults() DegraderConfig {
	if c.CheckPeriod <= 0 {
		c.CheckPeriod = time.Minute
	}
	if c.ShedInletC == 0 {
		c.ShedInletC = 31
	}
	if c.RecoverInletC == 0 {
		c.RecoverInletC = 27
	}
	if c.EmergencyCapFrac == 0 {
		c.EmergencyCapFrac = 0.7
	}
	return c
}

// validate rejects physically inconsistent settings.
func (c DegraderConfig) validate() error {
	if c.RecoverInletC >= c.ShedInletC {
		return fmt.Errorf("core: recover threshold %v must sit below shed threshold %v",
			c.RecoverInletC, c.ShedInletC)
	}
	if c.EmergencyCapFrac <= 0 || c.EmergencyCapFrac > 1 {
		return fmt.Errorf("core: emergency cap fraction %v out of (0,1]", c.EmergencyCapFrac)
	}
	return nil
}

// Degrader is the graceful-degradation half of the MRM layer: it
// subscribes to fault notifications (wire with Injector.Subscribe) and
// runs a periodic degradation check, trading performance for survival
// instead of letting protection circuits trip.
type Degrader struct {
	engine *sim.Engine
	dc     *DataCenter
	cfg    DegraderConfig

	enforcer *CapEnforcer

	capsOn    bool
	savedCaps []float64
	ladder    int
	slowest   int // DVFS index with the lowest frequency
	fastest   int // DVFS index with the highest frequency

	// admission, linked through SetRetry, mirrors the degradation state
	// onto the request-level shed ladder so infrastructure trouble is
	// expressed in users (degraded classes, rejections), not only in
	// watts.
	admission *workload.Admission
	// retry, when linked, lets the degrader trip the admission-side
	// circuit breaker the moment a correlated fault guarantees a
	// rejection wave, instead of waiting for the rate window to see it;
	// its recovery hysteresis also holds the shed ladder at >= 1 until
	// capacity has been stable long enough for the breaker to close.
	retry    *workload.RetryLoop
	survival bool

	capEvents     int
	survivalSheds int
	dvfsDowns     int
	consolidates  int
	zoneSheds     int
	shedServers   int
}

// NewDegrader builds a degrader over an assembled facility. Subscribe
// its OnNotice to a fault.Injector and call Start to run the periodic
// check.
func NewDegrader(e *sim.Engine, dc *DataCenter, cfg DegraderConfig) (*Degrader, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rackServers := make([][]*server.Server, len(dc.Topology().Racks))
	for i, s := range dc.Fleet().Servers() {
		rackServers[dc.RackOfServer(i)] = append(rackServers[dc.RackOfServer(i)], s)
	}
	enforcer, err := NewCapEnforcer(dc.Topology().Racks, rackServers)
	if err != nil {
		return nil, err
	}
	d := &Degrader{engine: e, dc: dc, cfg: cfg, enforcer: enforcer}
	ps := dc.Fleet().Servers()[0].Config().PStates
	for i, p := range ps {
		if p.Freq < ps[d.slowest].Freq {
			d.slowest = i
		}
		if p.Freq > ps[d.fastest].Freq {
			d.fastest = i
		}
	}
	return d, nil
}

// SetRetry links the closed-loop retry controller and the admission
// controller it wraps: infrastructure faults that guarantee a rejection
// wave (rack loss, capacity dips, UPS depletion) trip its circuit
// breaker immediately, every degradation action moves the user-facing
// shed ladder (admit → degrade class → reject), and the ladder will not
// fully release while the breaker is open or probing. Pass nil to
// unlink both.
func (d *Degrader) SetRetry(r *workload.RetryLoop) {
	d.retry, d.admission = r, nil
	if r != nil {
		d.admission = r.Admission()
	}
	d.syncAdmission()
}

// AdmissionShedLevel reports the user-facing shed level the degradation
// state maps to, whether or not a controller is linked.
func (d *Degrader) AdmissionShedLevel() int {
	level := d.ladder
	if d.retry != nil && d.retry.State() != workload.BreakerClosed && level < 1 {
		// Recovery hysteresis: while the breaker is open or probing,
		// capacity has not proven stable — keep best-effort traffic
		// degraded rather than releasing everything into the storm.
		level = 1
	}
	if d.capsOn && level < 1 {
		// Emergency caps throttle capacity: degrade best-effort traffic
		// rather than letting the fair share sag for everyone.
		level = 1
	}
	if d.survival && level < workload.MaxShedLevel {
		// Survival mode keeps only the critical interactive slice.
		level = workload.MaxShedLevel
	}
	return level
}

// syncAdmission pushes the current degradation state onto the linked
// admission controller.
func (d *Degrader) syncAdmission() {
	if d.admission == nil {
		return
	}
	d.admission.SetShedLevel(d.AdmissionShedLevel())
}

// LadderStage reports the current thermal-shedding stage (0 = none,
// 1 = DVFS-down, 2 = consolidated, 3 = zone shed).
func (d *Degrader) LadderStage() int { return d.ladder }

// CapEvents reports emergency cap engagements.
func (d *Degrader) CapEvents() int { return d.capEvents }

// SurvivalSheds reports shed-to-survival actions after UPS depletion.
func (d *Degrader) SurvivalSheds() int { return d.survivalSheds }

// DVFSDowns reports ladder stage-1 engagements.
func (d *Degrader) DVFSDowns() int { return d.dvfsDowns }

// Consolidations reports ladder stage-2 engagements.
func (d *Degrader) Consolidations() int { return d.consolidates }

// ZoneSheds reports ladder stage-3 engagements.
func (d *Degrader) ZoneSheds() int { return d.zoneSheds }

// ShedServers reports servers powered off by ladder/survival shedding.
func (d *Degrader) ShedServers() int { return d.shedServers }

// Enforcer exposes the reused §3.1 cap enforcer for diagnostics.
func (d *Degrader) Enforcer() *CapEnforcer { return d.enforcer }

// OnNotice is the fault.Listener entry point.
func (d *Degrader) OnNotice(e *sim.Engine, n fault.Notice) {
	switch n.Kind {
	case fault.UtilityOutage:
		// Redundancy lost (or regained): the feed runs on stored/backup
		// energy, so cap the racks against the derated capacity.
		if n.Start {
			d.engageCaps(e.Now())
		} else {
			d.releaseCaps(e.Now())
		}
	case fault.GeneratorOnline:
		// Generator carries the full critical load: keep the caps (one
		// failure from dark) but no additional action.
	case fault.RackFailure, fault.CapacityDip:
		// A correlated capacity loss makes a rejection wave certain:
		// trip the breaker now so clients fast-fail cheaply instead of
		// feeding the retry storm while the rate window catches up.
		if n.Start && d.retry != nil {
			d.retry.Trip()
		}
	case fault.UPSDepleted:
		if n.Start {
			if d.retry != nil {
				d.retry.Trip()
			}
			// Store empty, no generator: shed to the survival set now;
			// anything still drawing is unserved load.
			target := int(math.Ceil(float64(d.dc.Fleet().Size()) * survivalFrac))
			before := d.dc.Fleet().OnCount()
			d.dc.Fleet().SetTarget(target)
			if dropped := before - d.dc.Fleet().OnCount(); dropped > 0 {
				d.shedServers += dropped
			}
			d.survivalSheds++
			d.survival = true
		} else {
			d.survival = false
		}
	}
	d.syncAdmission()
}

// engageCaps derates every rack cap and starts enforcing.
func (d *Degrader) engageCaps(now time.Duration) {
	if d.capsOn {
		return
	}
	d.capsOn = true
	d.capEvents++
	racks := d.dc.Topology().Racks
	d.savedCaps = make([]float64, len(racks))
	for i, r := range racks {
		d.savedCaps[i] = r.Cap()
		r.SetCap(r.RatedW() * d.cfg.EmergencyCapFrac)
	}
	d.enforcer.Enforce(now)
}

// releaseCaps restores the saved caps and lifts the emergency throttle.
func (d *Degrader) releaseCaps(now time.Duration) {
	if !d.capsOn {
		return
	}
	d.capsOn = false
	for i, r := range d.dc.Topology().Racks {
		r.SetCap(d.savedCaps[i])
	}
	for _, s := range d.dc.Fleet().Servers() {
		if s.State() == server.StateActive {
			_ = s.SetThrottle(now, 1)
		}
	}
}

// Start runs the periodic degradation check and returns its handle.
func (d *Degrader) Start() sim.Handle {
	return d.engine.Every(d.cfg.CheckPeriod, func(e *sim.Engine) { d.tick(e.Now()) })
}

// tick runs one degradation pass: enforce emergency caps while engaged
// and walk the thermal ladder against the room state.
func (d *Degrader) tick(now time.Duration) {
	if d.capsOn {
		d.enforcer.Enforce(now)
	}
	room := d.dc.Room()
	maxInlet := math.Inf(-1)
	for z := 0; z < room.Zones(); z++ {
		maxInlet = math.Max(maxInlet, room.ZoneInletC(z))
	}
	cracDown := room.FailedUnits() > 0
	switch {
	case cracDown && maxInlet >= d.cfg.ShedInletC && d.ladder < 3:
		d.ladder++
		d.escalate(now)
	case d.ladder > 0 && !cracDown && maxInlet <= d.cfg.RecoverInletC:
		d.ladder--
		if d.ladder == 0 {
			// Back to nominal operating point.
			_ = d.dc.Fleet().SetPStateAll(now, d.fastest)
		}
	}
	d.syncAdmission()
}

// escalate applies one ladder stage: DVFS-down, consolidate, then power
// off the zones the failed CRACs regulate — performance first, capacity
// second, locality last (§5.1: keep load where the cooling can see it).
func (d *Degrader) escalate(now time.Duration) {
	fleet := d.dc.Fleet()
	switch d.ladder {
	case 1:
		_ = fleet.SetPStateAll(now, d.slowest)
		d.dvfsDowns++
	case 2:
		active := fleet.ActiveCount()
		shed := int(math.Ceil(float64(active) * consolidateFrac))
		before := fleet.OnCount()
		fleet.SetTarget(fleet.OnCount() - shed)
		if dropped := before - fleet.OnCount(); dropped > 0 {
			d.shedServers += dropped
		}
		d.consolidates++
	case 3:
		z := d.worstFailedZone()
		if z < 0 {
			return
		}
		for i, s := range fleet.Servers() {
			if st := s.State(); d.dc.ZoneOfServer(i) == z && (st == server.StateActive || st == server.StateBooting) {
				s.PowerOff(d.engine)
				d.shedServers++
			}
		}
		d.zoneSheds++
	}
}

// worstFailedZone picks the zone most dependent on failed CRAC units
// (highest summed sensitivity to them), or -1 when none is failed.
func (d *Degrader) worstFailedZone() int {
	room := d.dc.Room()
	best, bestScore := -1, 0.0
	for z := 0; z < room.Zones(); z++ {
		score := 0.0
		for c := 0; c < room.CRACs(); c++ {
			if room.UnitFailed(c) {
				score += room.Sensitivity(z, c)
			}
		}
		if score > bestScore {
			best, bestScore = z, score
		}
	}
	return best
}

// TelemetryGuard implements the last-good telemetry fallback: controllers
// hand every reconstructed zone map through Observe, and when the sensor
// network goes dark the guard replays the last good map and reports how
// long control has been running blind.
type TelemetryGuard struct {
	maxDark    int
	lastGood   []float64
	darkRounds int
	fallbacks  int
}

// NewTelemetryGuard builds a guard that declares degraded control after
// maxDark consecutive dark rounds (must be >= 1).
func NewTelemetryGuard(maxDark int) (*TelemetryGuard, error) {
	if maxDark < 1 {
		return nil, fmt.Errorf("core: telemetry guard needs maxDark >= 1, got %d", maxDark)
	}
	return &TelemetryGuard{maxDark: maxDark}, nil
}

// Observe records one telemetry round. ok=false (or a nil estimate)
// marks the round dark; the guard then returns the last good map (nil if
// none yet) and whether control should consider itself degraded — dark
// for more than maxDark consecutive rounds.
func (g *TelemetryGuard) Observe(est []float64, ok bool) (zoneMap []float64, degraded bool) {
	if ok && est != nil {
		g.lastGood = append(g.lastGood[:0], est...)
		g.darkRounds = 0
		return est, false
	}
	g.darkRounds++
	g.fallbacks++
	return g.lastGood, g.darkRounds >= g.maxDark
}

// Fallbacks reports how many rounds were served from the last good map.
func (g *TelemetryGuard) Fallbacks() int { return g.fallbacks }

// DarkRounds reports the current consecutive dark-round count.
func (g *TelemetryGuard) DarkRounds() int { return g.darkRounds }
