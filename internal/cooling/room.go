// Package cooling models the air-cooled machine room of the paper's
// Figure 2: thermal zones fed by CRAC units through a raised floor, with
// the three properties the paper's arguments depend on —
//
//  1. slow dynamics: CRAC controllers react only every ~15 minutes and
//     their actions reach servers after air-transport delays (§2.2);
//  2. uneven sensitivity: each CRAC regulates some locations much better
//     than others, captured by a zone×CRAC sensitivity matrix (§5.1,
//     after Project Genome [30]);
//  3. plant power: chilled-water CRACs draw compressor and fan power that
//     pushes facility PUE toward 2, while air-side economizers can bypass
//     the chiller when outside air permits (§2.2).
package cooling

import (
	"fmt"
	"math"
	"time"

	"repro/internal/control"
)

// airHeatCapacity is the volumetric heat capacity of air in J/(m³·K).
const airHeatCapacity = 1206

// DefaultPhysicsTick is the integration step used by the room builders.
const DefaultPhysicsTick = 10 * time.Second

// ZoneConfig describes one thermal zone (a group of racks sharing local
// airflow).
type ZoneConfig struct {
	// Name identifies the zone.
	Name string
	// Airflow is the cold-air volume delivered through the zone's
	// ventilated tiles, in m³/s.
	Airflow float64
	// ThermalTau is the lumped time constant of the zone's air and rack
	// mass: inlet temperature approaches its equilibrium with this lag.
	ThermalTau time.Duration
	// InitialC is the starting inlet temperature.
	InitialC float64
}

// CRACConfig describes one computer-room air conditioner.
type CRACConfig struct {
	// Name identifies the unit.
	Name string
	// SupplyMinC and SupplyMaxC bound the supply-air setpoint.
	SupplyMinC, SupplyMaxC float64
	// ReturnTargetC is the return-air temperature the unit regulates to.
	ReturnTargetC float64
	// Deadband suppresses reactions to small return-temperature
	// excursions ("to avoid over reaction and oscillation", §2.2).
	Deadband float64
	// Gain converts return-temperature error into supply-setpoint
	// change per control period.
	Gain float64
	// ControlPeriod is how often the controller acts (the paper: "CRAC
	// units usually react every 15 minutes").
	ControlPeriod time.Duration
	// CoilTau is the first-order lag of the cooling coil: the actual
	// supply temperature approaches the setpoint with this constant.
	CoilTau time.Duration
	// TransportDelay is the air-travel time from the unit to the zones.
	TransportDelay time.Duration
	// InitialSupplyC is the starting supply temperature and setpoint.
	InitialSupplyC float64
}

// DefaultZone returns a typical zone of ~2 racks.
func DefaultZone(name string) ZoneConfig {
	return ZoneConfig{
		Name:       name,
		Airflow:    4.0,
		ThermalTau: 4 * time.Minute,
		InitialC:   21,
	}
}

// DefaultCRAC returns a typical chilled-water unit with the paper's
// 15-minute control period.
func DefaultCRAC(name string) CRACConfig {
	return CRACConfig{
		Name:           name,
		SupplyMinC:     12,
		SupplyMaxC:     24,
		ReturnTargetC:  28,
		Deadband:       0.5,
		Gain:           0.8,
		ControlPeriod:  15 * time.Minute,
		CoilTau:        5 * time.Minute,
		TransportDelay: 2 * time.Minute,
		InitialSupplyC: 16,
	}
}

// RoomConfig assembles zones, CRACs, and their coupling.
type RoomConfig struct {
	Zones []ZoneConfig
	CRACs []CRACConfig
	// Sensitivity[z][c] is the fraction of zone z's inlet air that comes
	// (after transport delay) from CRAC c. Row sums must be in (0, 1];
	// the remainder 1−Σc is recirculated zone exhaust — the physical
	// reason a CRAC can be "extremely sensitive to servers at location
	// A, while not sensitive to servers at location B" (§5.1).
	Sensitivity [][]float64
	// PhysicsTick is the integration step for the thermal model.
	PhysicsTick time.Duration
}

// Validate checks structural and physical consistency.
func (c RoomConfig) Validate() error {
	if len(c.Zones) == 0 || len(c.CRACs) == 0 {
		return fmt.Errorf("cooling: room needs at least one zone and one CRAC")
	}
	if len(c.Sensitivity) != len(c.Zones) {
		return fmt.Errorf("cooling: sensitivity rows %d != zones %d", len(c.Sensitivity), len(c.Zones))
	}
	if c.PhysicsTick <= 0 {
		return fmt.Errorf("cooling: physics tick %v must be positive", c.PhysicsTick)
	}
	for zi, row := range c.Sensitivity {
		if len(row) != len(c.CRACs) {
			return fmt.Errorf("cooling: sensitivity row %d has %d entries, want %d", zi, len(row), len(c.CRACs))
		}
		var sum float64
		for ci, s := range row {
			if s < 0 || s > 1 {
				return fmt.Errorf("cooling: sensitivity[%d][%d] = %v out of [0,1]", zi, ci, s)
			}
			sum += s
		}
		if sum <= 0 || sum > 1+1e-9 {
			return fmt.Errorf("cooling: sensitivity row %d sums to %v, want (0,1]", zi, sum)
		}
	}
	for zi, z := range c.Zones {
		if z.Airflow <= 0 {
			return fmt.Errorf("cooling: zone %d airflow %v must be positive", zi, z.Airflow)
		}
		if z.ThermalTau <= 0 {
			return fmt.Errorf("cooling: zone %d thermal tau must be positive", zi)
		}
	}
	for ci, cr := range c.CRACs {
		if !(cr.SupplyMinC < cr.SupplyMaxC) {
			return fmt.Errorf("cooling: crac %d supply bounds [%v,%v] invalid", ci, cr.SupplyMinC, cr.SupplyMaxC)
		}
		if cr.ControlPeriod <= 0 || cr.CoilTau <= 0 {
			return fmt.Errorf("cooling: crac %d periods must be positive", ci)
		}
		if cr.TransportDelay < 0 {
			return fmt.Errorf("cooling: crac %d transport delay must be non-negative", ci)
		}
		if cr.Gain <= 0 {
			return fmt.Errorf("cooling: crac %d gain must be positive", ci)
		}
	}
	return nil
}

// zone is the runtime state of one zone.
type zone struct {
	cfg    ZoneConfig
	heatW  float64
	inlet  *control.FirstOrder
	recirc float64 // 1 − Σc sensitivity
}

// crac is the runtime state of one CRAC unit.
type crac struct {
	cfg      CRACConfig
	setpoint float64
	coil     *control.FirstOrder
	delay    *control.DelayLine
	deadband *control.Deadband
	// delayedSupply is the supply temperature as currently arriving at
	// the zones.
	delayedSupply float64
	// returnC is the last computed return-air temperature.
	returnC float64
	// adjustments counts setpoint changes (oscillation diagnostics).
	adjustments int
	// failed marks a unit whose cooling coil is out of service (fault
	// injection): the fan keeps moving air but the coil no longer chills
	// it, so the supply drifts toward the return temperature with the
	// coil's own lag and the zones it serves ramp hot.
	failed bool
}

// Room is the thermal model. Advance it with Step on a fine tick and run
// ControlTick per CRAC on its control period (Attach wires both onto a
// sim.Engine).
type Room struct {
	cfg   RoomConfig
	zones []*zone
	cracs []*crac
	// coolingLoadW is the total heat the plant currently removes.
	coolingLoadW float64
	// exhausts is Step's per-zone scratch, reused so the physics tick
	// stays allocation-free.
	exhausts []float64
}

// NewRoom builds the room model.
func NewRoom(cfg RoomConfig) (*Room, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Room{cfg: cfg}
	for zi, zc := range cfg.Zones {
		lag, err := control.NewFirstOrder(zc.ThermalTau, zc.InitialC)
		if err != nil {
			return nil, fmt.Errorf("cooling: zone %s: %w", zc.Name, err)
		}
		var sum float64
		for _, s := range cfg.Sensitivity[zi] {
			sum += s
		}
		r.zones = append(r.zones, &zone{cfg: zc, inlet: lag, recirc: 1 - sum})
	}
	for _, cc := range cfg.CRACs {
		coil, err := control.NewFirstOrder(cc.CoilTau, cc.InitialSupplyC)
		if err != nil {
			return nil, fmt.Errorf("cooling: crac %s: %w", cc.Name, err)
		}
		delay, err := control.NewDelayLine(cc.TransportDelay, cfg.PhysicsTick, cc.InitialSupplyC)
		if err != nil {
			return nil, fmt.Errorf("cooling: crac %s: %w", cc.Name, err)
		}
		db, err := control.NewDeadband(cc.Deadband)
		if err != nil {
			return nil, fmt.Errorf("cooling: crac %s: %w", cc.Name, err)
		}
		r.cracs = append(r.cracs, &crac{
			cfg:           cc,
			setpoint:      cc.InitialSupplyC,
			coil:          coil,
			delay:         delay,
			deadband:      db,
			delayedSupply: cc.InitialSupplyC,
			returnC:       cc.InitialSupplyC,
		})
	}
	r.exhausts = make([]float64, len(r.zones))
	return r, nil
}

// Zones reports the number of zones.
func (r *Room) Zones() int { return len(r.zones) }

// CRACs reports the number of CRAC units.
func (r *Room) CRACs() int { return len(r.cracs) }

// ZoneName returns the configured name of zone z.
func (r *Room) ZoneName(z int) string { return r.zones[z].cfg.Name }

// SetZoneHeat assigns the IT heat dissipated in zone z, in watts.
func (r *Room) SetZoneHeat(z int, watts float64) error {
	if z < 0 || z >= len(r.zones) {
		return fmt.Errorf("cooling: zone %d out of range", z)
	}
	if watts < 0 {
		return fmt.Errorf("cooling: negative heat %v", watts)
	}
	r.zones[z].heatW = watts
	return nil
}

// ZoneHeat reports the heat currently assigned to zone z.
func (r *Room) ZoneHeat(z int) float64 { return r.zones[z].heatW }

// ZoneSensitivity reports how strongly zone z is coupled to the CRACs:
// the sum of its sensitivity row (1 − recirculation). High values mean
// the cooling plant both sees and serves the zone well (§5.1).
func (r *Room) ZoneSensitivity(z int) float64 { return 1 - r.zones[z].recirc }

// ZoneInletC reports the current inlet temperature of zone z.
func (r *Room) ZoneInletC(z int) float64 { return r.zones[z].inlet.Output() }

// UnitConfig returns the configuration of CRAC unit c (for observers that
// need the setpoint bounds, e.g. the invariant checker).
func (r *Room) UnitConfig(c int) CRACConfig { return r.cracs[c].cfg }

// CRACSupplyC reports the supply temperature of unit c as delivered (after
// coil lag, before transport delay).
func (r *Room) CRACSupplyC(c int) float64 { return r.cracs[c].coil.Output() }

// CRACSetpointC reports the supply setpoint of unit c.
func (r *Room) CRACSetpointC(c int) float64 { return r.cracs[c].setpoint }

// CRACReturnC reports the last computed return-air temperature of unit c.
func (r *Room) CRACReturnC(c int) float64 { return r.cracs[c].returnC }

// CRACAdjustments reports how many setpoint changes unit c has made.
func (r *Room) CRACAdjustments(c int) int { return r.cracs[c].adjustments }

// SetCRACSetpoint assigns the supply setpoint of unit c directly, clamped
// to the unit's configured bounds. Supervisory controllers (e.g. a
// sensor-map-driven loop above the unit's own return-air control) use
// this as their actuation path.
func (r *Room) SetCRACSetpoint(c int, v float64) error {
	if c < 0 || c >= len(r.cracs) {
		return fmt.Errorf("cooling: crac %d out of range", c)
	}
	u := r.cracs[c]
	next := math.Max(u.cfg.SupplyMinC, math.Min(u.cfg.SupplyMaxC, v))
	if next != u.setpoint {
		u.setpoint = next
		u.adjustments++
	}
	return nil
}

// SetUnitFailed marks CRAC unit c as failed or repairs it. A failed
// unit's coil stops chilling — its supply drifts toward the return
// temperature with the coil's lag — and its return-air control loop is
// suspended until repair. Fan airflow is assumed to continue, so the
// sensitivity coupling is unchanged; the plant simply loses that unit's
// heat-rejection capacity.
func (r *Room) SetUnitFailed(c int, failed bool) error {
	if c < 0 || c >= len(r.cracs) {
		return fmt.Errorf("cooling: crac %d out of range", c)
	}
	r.cracs[c].failed = failed
	return nil
}

// UnitFailed reports whether CRAC unit c is currently failed.
func (r *Room) UnitFailed(c int) bool { return r.cracs[c].failed }

// FailedUnits reports how many CRAC units are currently failed.
func (r *Room) FailedUnits() int {
	n := 0
	for _, c := range r.cracs {
		if c.failed {
			n++
		}
	}
	return n
}

// Sensitivity reports the configured supply fraction zone z draws from
// CRAC unit c — the zone×CRAC coupling observers (e.g. a load-shedding
// controller deciding which zones a failed unit strands) need.
func (r *Room) Sensitivity(z, c int) float64 { return r.cfg.Sensitivity[z][c] }

// CoolingLoadW reports the total heat the plant is removing (for plant
// power computation): the sum of all zone heats.
func (r *Room) CoolingLoadW() float64 { return r.coolingLoadW }

// Step advances the thermal physics by one tick:
//
//  1. each CRAC's coil approaches its setpoint and the result is pushed
//     into its transport delay line;
//  2. each zone's equilibrium inlet is the sensitivity-weighted mix of
//     delayed CRAC supplies plus recirculated own exhaust, and the zone
//     lag moves toward it;
//  3. each CRAC's return temperature is its sensitivity-share-weighted
//     average of zone exhausts.
func (r *Room) Step() {
	dt := r.cfg.PhysicsTick
	for _, c := range r.cracs {
		target := c.setpoint
		if c.failed {
			// Dead coil: the air passes through unchilled, so the
			// delivered supply relaxes toward the return air.
			target = c.returnC
		}
		supply := c.coil.Step(target, dt)
		c.delayedSupply = c.delay.Step(supply)
	}
	var totalHeat float64
	exhausts := r.exhausts
	for zi, zn := range r.zones {
		mix := 0.0
		for ci, s := range r.cfg.Sensitivity[zi] {
			mix += s * r.cracs[ci].delayedSupply
		}
		rise := zn.heatW / (airHeatCapacity * zn.cfg.Airflow)
		// Inlet equilibrium with recirculation: T = mix + rec·(T+rise)
		// ⇒ T = (mix + rec·rise) / (1 − rec), guarded for rec→1.
		denom := 1 - zn.recirc
		if denom < 0.05 {
			denom = 0.05
		}
		equilibrium := (mix + zn.recirc*rise) / denom
		zn.inlet.Step(equilibrium, dt)
		exhausts[zi] = zn.inlet.Output() + rise
		totalHeat += zn.heatW
	}
	r.coolingLoadW = totalHeat
	// Return air per CRAC: zones weighted by this CRAC's share of their
	// supply (column-normalized sensitivity).
	for ci, c := range r.cracs {
		var wsum, acc float64
		for zi := range r.zones {
			w := r.cfg.Sensitivity[zi][ci]
			acc += w * exhausts[zi]
			wsum += w
		}
		if wsum > 0 {
			c.returnC = acc / wsum
		}
	}
}

// ControlTick runs one CRAC control decision for unit c (call every
// ControlPeriod): if the deadband-filtered return temperature deviates
// from target, move the supply setpoint proportionally, clamped to the
// unit's bounds.
func (r *Room) ControlTick(c int) {
	u := r.cracs[c]
	if u.failed {
		return // a failed unit's controller is out of service too
	}
	filtered := u.deadband.Update(u.returnC)
	err := filtered - u.cfg.ReturnTargetC
	if err == 0 {
		return
	}
	next := math.Max(u.cfg.SupplyMinC, math.Min(u.cfg.SupplyMaxC, u.setpoint-u.cfg.Gain*err))
	if next != u.setpoint {
		u.setpoint = next
		u.adjustments++
	}
}

// PhysicsTick reports the configured integration step.
func (r *Room) PhysicsTick() time.Duration { return r.cfg.PhysicsTick }
