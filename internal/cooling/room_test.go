package cooling

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func mustUniform(t *testing.T, zones, cracs int, coverage float64) *Room {
	t.Helper()
	r, err := UniformRoom(zones, cracs, coverage)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// settle advances the room physics (without CRAC control) for d.
func settle(r *Room, d time.Duration) {
	steps := int(d / r.PhysicsTick())
	for i := 0; i < steps; i++ {
		r.Step()
	}
}

func TestRoomValidation(t *testing.T) {
	base := func() RoomConfig {
		return RoomConfig{
			Zones:       []ZoneConfig{DefaultZone("a")},
			CRACs:       []CRACConfig{DefaultCRAC("c")},
			Sensitivity: [][]float64{{0.9}},
			PhysicsTick: DefaultPhysicsTick,
		}
	}
	tests := []struct {
		name   string
		mutate func(*RoomConfig)
	}{
		{"no zones", func(c *RoomConfig) { c.Zones = nil }},
		{"no cracs", func(c *RoomConfig) { c.CRACs = nil }},
		{"row count mismatch", func(c *RoomConfig) { c.Sensitivity = nil }},
		{"row width mismatch", func(c *RoomConfig) { c.Sensitivity = [][]float64{{0.5, 0.5}} }},
		{"sensitivity > 1", func(c *RoomConfig) { c.Sensitivity = [][]float64{{1.5}} }},
		{"row sums zero", func(c *RoomConfig) { c.Sensitivity = [][]float64{{0}} }},
		{"zero tick", func(c *RoomConfig) { c.PhysicsTick = 0 }},
		{"zero airflow", func(c *RoomConfig) { c.Zones[0].Airflow = 0 }},
		{"zero thermal tau", func(c *RoomConfig) { c.Zones[0].ThermalTau = 0 }},
		{"bad supply bounds", func(c *RoomConfig) { c.CRACs[0].SupplyMinC = 30 }},
		{"zero control period", func(c *RoomConfig) { c.CRACs[0].ControlPeriod = 0 }},
		{"zero gain", func(c *RoomConfig) { c.CRACs[0].Gain = 0 }},
		{"negative transport", func(c *RoomConfig) { c.CRACs[0].TransportDelay = -time.Second }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.mutate(&cfg)
			if _, err := NewRoom(cfg); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if _, err := NewRoom(base()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestZoneHeatAccessors(t *testing.T) {
	r := mustUniform(t, 2, 1, 0.9)
	if err := r.SetZoneHeat(0, 10_000); err != nil {
		t.Fatal(err)
	}
	if r.ZoneHeat(0) != 10_000 {
		t.Errorf("ZoneHeat = %v", r.ZoneHeat(0))
	}
	if err := r.SetZoneHeat(5, 100); err == nil {
		t.Error("out-of-range zone should error")
	}
	if err := r.SetZoneHeat(0, -1); err == nil {
		t.Error("negative heat should error")
	}
	if r.Zones() != 2 || r.CRACs() != 1 {
		t.Errorf("shape = %d zones, %d cracs", r.Zones(), r.CRACs())
	}
	if r.ZoneName(0) != "zone-0" {
		t.Errorf("ZoneName = %q", r.ZoneName(0))
	}
}

func TestMoreHeatRaisesInlet(t *testing.T) {
	r := mustUniform(t, 1, 1, 0.9)
	if err := r.SetZoneHeat(0, 5_000); err != nil {
		t.Fatal(err)
	}
	settle(r, time.Hour)
	coolInlet := r.ZoneInletC(0)
	if err := r.SetZoneHeat(0, 20_000); err != nil {
		t.Fatal(err)
	}
	settle(r, time.Hour)
	if r.ZoneInletC(0) <= coolInlet {
		t.Errorf("quadrupled heat did not raise inlet: %v -> %v", coolInlet, r.ZoneInletC(0))
	}
	if r.CoolingLoadW() != 20_000 {
		t.Errorf("cooling load = %v, want 20000", r.CoolingLoadW())
	}
}

func TestSlowDynamics(t *testing.T) {
	// Paper §2.2: "air cooling systems have slow dynamics" — a heat step
	// must not appear at the inlet instantly, and the response should
	// take minutes to settle.
	r := mustUniform(t, 1, 1, 0.85)
	settle(r, 30*time.Minute) // reach initial equilibrium
	before := r.ZoneInletC(0)
	if err := r.SetZoneHeat(0, 30_000); err != nil {
		t.Fatal(err)
	}
	r.Step() // one 10-second tick
	after := r.ZoneInletC(0)
	settle(r, time.Hour)
	final := r.ZoneInletC(0)
	jump := after - before
	total := final - before
	if total <= 0.5 {
		t.Fatalf("heat step produced no meaningful inlet change: %v", total)
	}
	if jump > 0.3*total {
		t.Errorf("inlet moved %.1f%% of the way in one 10s tick — dynamics too fast",
			100*jump/total)
	}
}

func TestTransportDelayDefersSupplyChange(t *testing.T) {
	cfg := RoomConfig{
		Zones:       []ZoneConfig{DefaultZone("a")},
		CRACs:       []CRACConfig{DefaultCRAC("c")},
		Sensitivity: [][]float64{{0.95}},
		PhysicsTick: DefaultPhysicsTick,
	}
	cfg.Zones[0].ThermalTau = time.Second // near-instant zone: isolate the delay
	cfg.CRACs[0].CoilTau = time.Second
	cfg.CRACs[0].TransportDelay = 2 * time.Minute
	r, err := NewRoom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	settle(r, 10*time.Minute)
	before := r.ZoneInletC(0)
	// Force a big setpoint change by hand.
	r.cracs[0].setpoint = 24
	// One tick later the zone must not yet have seen warm air (the
	// transport line still carries old supply).
	r.Step()
	if math.Abs(r.ZoneInletC(0)-before) > 0.5 {
		t.Errorf("inlet changed %v before transport delay elapsed", r.ZoneInletC(0)-before)
	}
	settle(r, 10*time.Minute)
	if r.ZoneInletC(0) <= before+2 {
		t.Errorf("inlet %v did not follow supply change after delay (was %v)", r.ZoneInletC(0), before)
	}
}

func TestCRACControlRespondsToHeat(t *testing.T) {
	r := mustUniform(t, 1, 1, 0.9)
	// 100 kW over 4 m³/s is a ~21 K rise: return air goes well above the
	// 28 °C target, so the controller must cut the supply temperature.
	if err := r.SetZoneHeat(0, 100_000); err != nil {
		t.Fatal(err)
	}
	initialSetpoint := r.CRACSetpointC(0)
	// Run physics + control for two hours.
	for i := 0; i < 8; i++ {
		settle(r, 15*time.Minute)
		r.ControlTick(0)
	}
	if r.CRACSetpointC(0) >= initialSetpoint {
		t.Errorf("setpoint %v did not drop under heavy load (was %v)",
			r.CRACSetpointC(0), initialSetpoint)
	}
	if r.CRACAdjustments(0) == 0 {
		t.Error("no control adjustments recorded")
	}
	if r.CRACReturnC(0) <= r.CRACSupplyC(0) {
		t.Errorf("return %v not above supply %v under load", r.CRACReturnC(0), r.CRACSupplyC(0))
	}
}

func TestCRACDeadbandSuppressesSmallErrors(t *testing.T) {
	r := mustUniform(t, 1, 1, 0.9)
	// Tiny heat: return stays within the deadband of its initial value,
	// so repeated control ticks must not adjust the setpoint...
	settle(r, time.Hour)
	ret := r.CRACReturnC(0)
	// Force return target to sit exactly at current return so error ~ 0.
	r.cracs[0].cfg.ReturnTargetC = ret
	r.cracs[0].deadband.Update(ret)
	before := r.CRACAdjustments(0)
	for i := 0; i < 10; i++ {
		settle(r, 15*time.Minute)
		r.ControlTick(0)
	}
	if got := r.CRACAdjustments(0) - before; got > 1 {
		t.Errorf("deadband allowed %d adjustments at equilibrium", got)
	}
}

func TestSetpointClampedToBounds(t *testing.T) {
	r := mustUniform(t, 1, 1, 0.9)
	if err := r.SetZoneHeat(0, 200_000); err != nil { // absurd heat
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		settle(r, 15*time.Minute)
		r.ControlTick(0)
	}
	min := r.cracs[0].cfg.SupplyMinC
	if r.CRACSetpointC(0) < min {
		t.Errorf("setpoint %v fell below bound %v", r.CRACSetpointC(0), min)
	}
	if r.CRACSetpointC(0) != min {
		t.Errorf("setpoint %v did not saturate at %v under absurd heat", r.CRACSetpointC(0), min)
	}
}

func TestMigrationPathologyMechanism(t *testing.T) {
	// Paper §5.1: the CRAC regulates zone A well and zone B poorly.
	// Migrating all load A→B and shutting A down makes the CRAC believe
	// the room is cold (its return is dominated by A), so it raises the
	// supply temperature while B — mostly recirculating its own exhaust —
	// heats toward alarm territory.
	r, err := TwoZoneRoom(0.85, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	const load = 25_000.0
	if err := r.SetZoneHeat(0, load); err != nil {
		t.Fatal(err)
	}
	if err := r.SetZoneHeat(1, 5_000); err != nil {
		t.Fatal(err)
	}
	run := func(d time.Duration) {
		periods := int(d / (15 * time.Minute))
		for i := 0; i < periods; i++ {
			settle(r, 15*time.Minute)
			r.ControlTick(0)
		}
	}
	run(3 * time.Hour)
	bBefore := r.ZoneInletC(1)
	setpointBefore := r.CRACSetpointC(0)

	// Migrate: all heat to B, none at A.
	if err := r.SetZoneHeat(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.SetZoneHeat(1, load+5_000); err != nil {
		t.Fatal(err)
	}
	run(4 * time.Hour)

	if r.CRACSetpointC(0) <= setpointBefore {
		t.Errorf("CRAC setpoint %v did not rise after its sensitive zone cooled (was %v)",
			r.CRACSetpointC(0), setpointBefore)
	}
	bAfter := r.ZoneInletC(1)
	if bAfter <= bBefore+3 {
		t.Errorf("zone B inlet rose only %.1f°C after migration (from %.1f to %.1f) — pathology not reproduced",
			bAfter-bBefore, bBefore, bAfter)
	}
}

func TestTwoZoneRoomValidation(t *testing.T) {
	if _, err := TwoZoneRoom(0.3, 0.5); err == nil {
		t.Error("A less sensitive than B should error")
	}
}

func TestUniformRoomValidation(t *testing.T) {
	if _, err := UniformRoom(0, 1, 0.9); err == nil {
		t.Error("zero zones should error")
	}
	if _, err := UniformRoom(1, 0, 0.9); err == nil {
		t.Error("zero cracs should error")
	}
	if _, err := UniformRoom(1, 1, 0); err == nil {
		t.Error("zero coverage should error")
	}
	if _, err := UniformRoom(1, 1, 1.5); err == nil {
		t.Error("coverage > 1 should error")
	}
}

func TestAttachRunsPhysicsAndControl(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustUniform(t, 1, 1, 0.9)
	if err := r.SetZoneHeat(0, 40_000); err != nil {
		t.Fatal(err)
	}
	cancel := r.Attach(e)
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if r.CRACAdjustments(0) == 0 {
		t.Error("attached room made no control adjustments over 2h of load")
	}
	// Under load the inlet must sit above the cold-air supply (the rise
	// comes from recirculated exhaust).
	if r.ZoneInletC(0) <= r.CRACSupplyC(0) {
		t.Errorf("inlet %v not above supply %v under 40 kW", r.ZoneInletC(0), r.CRACSupplyC(0))
	}
	cancel()
	processed := e.Processed()
	if err := e.Run(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != processed {
		t.Error("cancel did not stop the attached processes")
	}
}
