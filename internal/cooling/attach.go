package cooling

import (
	"fmt"

	"repro/internal/sim"
)

// Attach wires the room onto a simulation engine: physics steps on every
// PhysicsTick and one control decision per CRAC on its control period.
// It returns the physics handle, then one handle per CRAC.
func (r *Room) Attach(e *sim.Engine) []sim.Handle {
	e.Register(r)
	handles := make([]sim.Handle, 0, 1+len(r.cracs))
	handles = append(handles, e.Every(r.cfg.PhysicsTick, func(*sim.Engine) { r.Step() }))
	for ci := range r.cracs {
		ci := ci
		period := r.cracs[ci].cfg.ControlPeriod
		handles = append(handles, e.Every(period, func(*sim.Engine) { r.ControlTick(ci) }))
	}
	return handles
}

// TwoZoneRoom builds the canonical asymmetric room of the paper's §5.1
// scenario: one CRAC, zone A tightly coupled to it (sensitivity
// aSensitivity) and zone B poorly coupled (bSensitivity, with the
// remainder recirculated hot air). Use it to reproduce the migration
// pathology: "migrate load from servers at location A to servers at
// location B and shut down the servers at A … servers at B are then at
// risk of generating thermal alarms."
func TwoZoneRoom(aSensitivity, bSensitivity float64) (*Room, error) {
	if aSensitivity <= bSensitivity {
		return nil, fmt.Errorf("cooling: zone A sensitivity %v must exceed zone B %v",
			aSensitivity, bSensitivity)
	}
	zoneA := DefaultZone("zone-a")
	zoneB := DefaultZone("zone-b")
	cfg := RoomConfig{
		Zones:       []ZoneConfig{zoneA, zoneB},
		CRACs:       []CRACConfig{DefaultCRAC("crac-1")},
		Sensitivity: [][]float64{{aSensitivity}, {bSensitivity}},
		PhysicsTick: DefaultPhysicsTick,
	}
	return NewRoom(cfg)
}

// UniformRoom builds a room of n zones and m CRACs with even coupling
// (each zone draws equally from every CRAC with total supply fraction
// coverage, the remainder recirculating).
func UniformRoom(zones, cracs int, coverage float64) (*Room, error) {
	if zones <= 0 || cracs <= 0 {
		return nil, fmt.Errorf("cooling: need positive zone and CRAC counts")
	}
	if coverage <= 0 || coverage > 1 {
		return nil, fmt.Errorf("cooling: coverage %v out of (0,1]", coverage)
	}
	cfg := RoomConfig{PhysicsTick: DefaultPhysicsTick}
	for z := 0; z < zones; z++ {
		cfg.Zones = append(cfg.Zones, DefaultZone(fmt.Sprintf("zone-%d", z)))
		row := make([]float64, cracs)
		for c := range row {
			row[c] = coverage / float64(cracs)
		}
		cfg.Sensitivity = append(cfg.Sensitivity, row)
	}
	for c := 0; c < cracs; c++ {
		cfg.CRACs = append(cfg.CRACs, DefaultCRAC(fmt.Sprintf("crac-%d", c)))
	}
	return NewRoom(cfg)
}

// FourZoneConfig is the four-zone, two-CRAC room of the paper's §5.1
// facility: zones z0–z3 graded from c0-dominated to c1-dominated, each
// with its default airflow times airScale, so a facility carrying
// airScale times the 40-server load keeps the same temperature regime.
func FourZoneConfig(airScale float64) RoomConfig {
	cfg := RoomConfig{
		CRACs:       []CRACConfig{DefaultCRAC("c0"), DefaultCRAC("c1")},
		Sensitivity: [][]float64{{0.6, 0.3}, {0.5, 0.4}, {0.4, 0.5}, {0.3, 0.6}},
		PhysicsTick: DefaultPhysicsTick,
	}
	for z := 0; z < 4; z++ {
		zc := DefaultZone(fmt.Sprintf("z%d", z))
		zc.Airflow *= airScale
		cfg.Zones = append(cfg.Zones, zc)
	}
	return cfg
}
