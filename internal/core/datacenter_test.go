package core

import (
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// smallDCConfig builds a 2-rack, 2-zone facility with 4 servers per rack.
func smallDCConfig() DataCenterConfig {
	room := cooling.RoomConfig{
		Zones:       []cooling.ZoneConfig{cooling.DefaultZone("za"), cooling.DefaultZone("zb")},
		CRACs:       []cooling.CRACConfig{cooling.DefaultCRAC("c1")},
		Sensitivity: [][]float64{{0.85}, {0.80}},
		PhysicsTick: cooling.DefaultPhysicsTick,
	}
	// Size the plant to the tiny 8-server facility: fans at ~15 % of
	// the ~2.4 kW IT load.
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 350
	return DataCenterConfig{
		Name:           "dc-test",
		ServerConfig:   testServerConfig(),
		ServersPerRack: 4,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: 2,
			RackRatedW: 2_000, Oversubscription: 1,
		},
		Room:        room,
		ZoneOfRack:  []int{0, 1},
		Plant:       plant,
		SampleEvery: 15 * time.Second,
	}
}

func TestNewDataCenterValidation(t *testing.T) {
	e := sim.NewEngine(1)
	tests := []struct {
		name   string
		mutate func(*DataCenterConfig)
	}{
		{"zero servers per rack", func(c *DataCenterConfig) { c.ServersPerRack = 0 }},
		{"bad topology", func(c *DataCenterConfig) { c.Topology.UPSCount = 0 }},
		{"bad room", func(c *DataCenterConfig) { c.Room.Zones = nil }},
		{"bad plant", func(c *DataCenterConfig) { c.Plant.COPNominal = 0 }},
		{"zone map wrong length", func(c *DataCenterConfig) { c.ZoneOfRack = []int{0} }},
		{"zone map out of range", func(c *DataCenterConfig) { c.ZoneOfRack = []int{0, 9} }},
		{"negative sampling", func(c *DataCenterConfig) { c.SampleEvery = -time.Second }},
		{"bad server config", func(c *DataCenterConfig) { c.ServerConfig.PeakPower = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallDCConfig()
			tt.mutate(&cfg)
			if _, err := NewDataCenter(e, cfg); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestDataCenterAssembly(t *testing.T) {
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, smallDCConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dc.Fleet().Size() != 8 {
		t.Errorf("fleet size = %d, want 8", dc.Fleet().Size())
	}
	// Servers 0–3 in rack 0 / zone 0; 4–7 in rack 1 / zone 1.
	if dc.ZoneOfServer(0) != 0 || dc.ZoneOfServer(7) != 1 {
		t.Errorf("zone mapping wrong: %d, %d", dc.ZoneOfServer(0), dc.ZoneOfServer(7))
	}
	if got := dc.ServersInZone(0); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("ServersInZone(0) = %v", got)
	}
	if dc.Store() == nil {
		t.Error("telemetry store missing despite sampling enabled")
	}
}

func TestDataCenterPowerFlowTracksFleet(t *testing.T) {
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, smallDCConfig())
	if err != nil {
		t.Fatal(err)
	}
	// All off: no critical power.
	flow := dc.Flow()
	if flow.CriticalPower() != 0 {
		t.Errorf("off facility critical power = %v", flow.CriticalPower())
	}
	// Boot four servers; critical power = 4 × idle.
	dc.Fleet().SetTarget(4)
	if err := e.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	dc.Fleet().Sync(e.Now())
	flow = dc.Flow()
	cfg := testServerConfig()
	want := 4 * cfg.PeakPower * cfg.IdleFraction
	if diff := flow.CriticalPower() - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("critical power = %v, want %v", flow.CriticalPower(), want)
	}
	if flow.InW <= flow.CriticalPower() {
		t.Error("no distribution losses in flow")
	}
	if dc.ITPowerW() != dc.Fleet().PowerW() {
		t.Error("ITPowerW inconsistent with fleet")
	}
}

func TestDataCenterAttachCouplesHeatAndTelemetry(t *testing.T) {
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, smallDCConfig())
	if err != nil {
		t.Fatal(err)
	}
	handles, err := dc.Attach()
	if err != nil {
		t.Fatal(err)
	}
	// Room physics, one CRAC, the heat coupling and telemetry sampling.
	if len(handles) != 4 {
		t.Fatalf("Attach returned %d handles, want 4", len(handles))
	}
	if _, err := dc.Attach(); err == nil {
		t.Error("double attach should error")
	}
	dc.Fleet().SetTarget(8)
	now := time.Duration(0)
	if err := e.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	now = e.Now()
	dc.Fleet().Dispatch(now, 6_000) // hot fleet
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	// Heat reached the room.
	if dc.Room().CoolingLoadW() <= 0 {
		t.Error("room saw no heat from the fleet")
	}
	// Telemetry collected per-server and per-zone series.
	keys := dc.Store().Keys()
	if len(keys) != 8*2+2 {
		t.Errorf("telemetry keys = %d, want 18", len(keys))
	}
	bs, err := dc.Store().Query("srv0000/power", 0, 1<<62, telemetry.ResMinute)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) == 0 {
		t.Error("no power samples collected")
	}
	// PUE is sane for a loaded facility.
	pue, plant, err := dc.PUEAt(20, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if pue < 1.05 || pue > 3 {
		t.Errorf("PUE = %v out of plausible range", pue)
	}
	if plant.TotalW() <= 0 {
		t.Error("plant drew no power under load")
	}
	// PUEOf over a tree evaluation into a reused buffer reads the same.
	var flows []power.Flow
	pueOf, plantOf, err := dc.PUEOf(dc.Topology().Feed.EvaluateInto(&flows), 20, 0.4)
	if err != nil || pueOf != pue || plantOf != plant {
		t.Errorf("PUEOf = %v, %+v, %v; PUEAt = %v, %+v", pueOf, plantOf, err, pue, plant)
	}
	// Cancelling the returned handles stops every attached process.
	for _, h := range handles {
		e.Cancel(h)
	}
	processed := e.Processed()
	if err := e.Run(e.Now() + 4*time.Hour); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != processed {
		t.Errorf("%d events fired after cancelling every Attach handle", e.Processed()-processed)
	}
}

func TestDataCenterThermalProtection(t *testing.T) {
	// Cripple the cooling: starve the zones of tile airflow and make
	// them recirculate their own exhaust (sensitivity 0.1 → 90 %%
	// recirculation). A loaded fleet must trip its protective sensors
	// rather than cook.
	cfg := smallDCConfig()
	for i := range cfg.Room.Zones {
		cfg.Room.Zones[i].Airflow = 0.2
	}
	cfg.Room.Sensitivity = [][]float64{{0.1}, {0.1}}
	cfg.SampleEvery = 0
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Store() != nil {
		t.Error("store created despite sampling disabled")
	}
	if _, err := dc.Attach(); err != nil {
		t.Fatal(err)
	}
	dc.Fleet().SetTarget(8)
	if err := e.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	dc.Fleet().Dispatch(e.Now(), 8_000)
	if err := e.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if dc.Trips() == 0 {
		t.Error("no thermal trips despite crippled cooling under full load")
	}
	if dc.Fleet().Trips() != dc.Trips() {
		t.Errorf("trip accounting mismatch: %d vs %d", dc.Fleet().Trips(), dc.Trips())
	}
}

func TestPreferCoolingSensitiveZones(t *testing.T) {
	// Zone 1 is better coupled than zone 0; preferring sensitive zones
	// must activate zone-1 servers first.
	cfg := smallDCConfig()
	cfg.Room.Sensitivity = [][]float64{{0.40}, {0.90}}
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.PreferCoolingSensitiveZones(); err != nil {
		t.Fatal(err)
	}
	// Mapping stayed consistent after the reorder.
	for i := range dc.Fleet().Servers() {
		if i < 4 && dc.ZoneOfServer(i) != 1 {
			t.Fatalf("server %d zone = %d, want 1 (sensitive first)", i, dc.ZoneOfServer(i))
		}
		if i >= 4 && dc.ZoneOfServer(i) != 0 {
			t.Fatalf("server %d zone = %d, want 0", i, dc.ZoneOfServer(i))
		}
	}
	dc.Fleet().SetTarget(4)
	if err := e.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	dc.Fleet().Sync(e.Now())
	// All active servers sit in the sensitive zone.
	for i, s := range dc.Fleet().Servers() {
		active := s.State().String() == "active"
		if active && dc.ZoneOfServer(i) != 1 {
			t.Errorf("active server %d in zone %d, want sensitive zone 1", i, dc.ZoneOfServer(i))
		}
	}
}

func TestFleetReorderValidation(t *testing.T) {
	e := sim.NewEngine(1)
	f, err := NewFleet(e, testServerConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Reorder([]int{0, 1}); err == nil {
		t.Error("short permutation should error")
	}
	if err := f.Reorder([]int{0, 0, 1}); err == nil {
		t.Error("duplicate entry should error")
	}
	if err := f.Reorder([]int{0, 1, 5}); err == nil {
		t.Error("out-of-range entry should error")
	}
	names := []string{f.Servers()[0].Name(), f.Servers()[1].Name(), f.Servers()[2].Name()}
	if err := f.Reorder([]int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if f.Servers()[0].Name() != names[2] || f.Servers()[1].Name() != names[0] {
		t.Error("reorder did not permute as requested")
	}
}
