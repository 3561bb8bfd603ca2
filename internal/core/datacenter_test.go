package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/power"
	"repro/internal/server"
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
	for i := range dc.Fleet().Size() {
		if r, z := dc.RackOfServer(i), dc.ZoneOfServer(i); r != i/4 || z != i/4 {
			t.Errorf("server %d in rack %d, zone %d; want %d, %d", i, r, z, i/4, i/4)
		}
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
	trips := 0
	for _, s := range dc.Fleet().Servers() {
		trips += s.Trips()
	}
	if trips != dc.Trips() {
		t.Errorf("trip accounting mismatch: servers count %d, facility %d", trips, dc.Trips())
	}
}

// tripScanTrace is the bit-level record of TestTripScanPoweredPrefix's
// hot tick.
type tripScanTrace struct {
	Trips                int
	Power, Energy        uint64
	RackPower, ZonePower []uint64
}

// TestTripScanPoweredPrefix runs one hot coupling tick over a facility
// whose two zones interleave by rack, so each zone spans both of the
// fleet's shards, inline and on a 2-worker pool. A handle boots the top
// slot, past the live bound SetTarget left, and a crash opens a hole
// inside the prefix. Zone 0's inlet starts above the trip threshold and
// zone 1's below it, and their lag is slow enough that neither crosses
// it within the tick: every committed server of zone 0 must trip, the
// handle-booted one included, none of zone 1 may, and zone 0's Off
// servers must keep their last sync time and inlet, since the scan
// writes no Off server.
func TestTripScanPoweredPrefix(t *testing.T) {
	const (
		racks, perRack = 4, 256
		hot            = 0
	)
	run := func(workers int) tripScanTrace {
		t.Helper()
		srvCfg := testServerConfig()
		zones := []cooling.ZoneConfig{cooling.DefaultZone("hot"), cooling.DefaultZone("cool")}
		for z := range zones {
			zones[z].Airflow *= perRack / 20
			zones[z].ThermalTau = 24 * time.Hour
		}
		zones[hot].InitialC = srvCfg.TripTempC + 10
		plant := cooling.DefaultPlantConfig()
		plant.FanRatedW = 50 * racks * perRack
		e := sim.NewEngine(1)
		dc, err := NewDataCenter(e, DataCenterConfig{
			Name:           "dc-trip",
			ServerConfig:   srvCfg,
			ServersPerRack: perRack,
			Topology: power.TopologyConfig{
				UPSCount: 1, PDUsPerUPS: 2, RacksPerPDU: 2,
				RackRatedW: perRack * srvCfg.PeakPower * 1.05, Oversubscription: 1,
			},
			Room: cooling.RoomConfig{
				Zones:       zones,
				CRACs:       []cooling.CRACConfig{cooling.DefaultCRAC("c0")},
				Sensitivity: [][]float64{{0.6}, {0.6}},
				PhysicsTick: cooling.DefaultPhysicsTick,
			},
			ZoneOfRack: []int{1, 0, 1, 0},
			Plant:      plant,
			Pool:       newTestPool(t, workers),
		})
		if err != nil {
			t.Fatal(err)
		}
		f := dc.Fleet()
		n := f.Size()
		if len(f.shards) < 2 {
			t.Fatalf("%d servers in %d shard; want several", n, len(f.shards))
		}
		f.SetTarget(n/2 + 88)
		top := f.ServerAt(n - 1)
		top.PowerOn(e)
		if err := e.Run(srvCfg.BootDelay + time.Second); err != nil {
			t.Fatal(err)
		}
		f.Dispatch(e.Now(), 0.5*float64(f.ActiveCount())*srvCfg.Capacity)
		hole := f.ServerAt(perRack + 10)
		if dc.ZoneOfServer(n-1) != hot || dc.ZoneOfServer(perRack+10) != hot || !hole.Crash(e.Now()) {
			t.Fatal("the handle-booted server and the crashed one must be committed servers of the hot zone")
		}
		type before struct {
			committed bool
			syncedAt  time.Duration
			inletC    float64
		}
		was := make([]before, n)
		for i, s := range f.Servers() {
			st := s.State()
			was[i] = before{st == server.StateActive || st == server.StateBooting, s.LastSyncAt(), s.InletTempC()}
		}

		if _, err := dc.Attach(); err != nil {
			t.Fatal(err)
		}
		tick := e.Now() + dc.Room().PhysicsTick()
		if err := e.Run(tick); err != nil {
			t.Fatal(err)
		}
		inlet := dc.Room().ZoneInletC(hot)
		if !(inlet > srvCfg.TripTempC) || !(dc.Room().ZoneInletC(1-hot) <= srvCfg.TripTempC) {
			t.Fatalf("zone inlets %v °C (hot) and %v °C (cool) around the %v °C trip threshold",
				inlet, dc.Room().ZoneInletC(1-hot), srvCfg.TripTempC)
		}
		tripped := 0
		for i, s := range f.Servers() {
			w := was[i]
			switch {
			case dc.ZoneOfServer(i) != hot:
				if s.Trips() != 0 || s.InletTempC() != w.inletC {
					t.Fatalf("workers=%d: cool-zone server %d tripped %d times, inlet %v °C", workers, i, s.Trips(), s.InletTempC())
				}
			case w.committed:
				if s.State() != server.StateOff || s.Trips() != 1 || s.InletTempC() != inlet || s.LastSyncAt() != tick {
					t.Fatalf("workers=%d: committed hot-zone server %d is %v after %d trips, inlet %v °C at %v; want a trip at %v °C at %v",
						workers, i, s.State(), s.Trips(), s.InletTempC(), s.LastSyncAt(), inlet, tick)
				}
				tripped++
			case s.LastSyncAt() != w.syncedAt || math.Float64bits(s.InletTempC()) != math.Float64bits(w.inletC):
				t.Fatalf("workers=%d: the scan wrote Off hot-zone server %d: synced at %v, inlet %v °C; was %v, %v °C",
					workers, i, s.LastSyncAt(), s.InletTempC(), w.syncedAt, w.inletC)
			}
		}
		if want := perRack; tripped != want || f.Trips() != want || dc.Trips() != want {
			t.Fatalf("workers=%d: %d servers tripped, fleet counts %d; want the %d committed ones of the hot zone",
				workers, tripped, f.Trips(), want)
		}
		if err := f.VerifyAggregates(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tr := tripScanTrace{Trips: f.Trips(), Power: math.Float64bits(f.PowerW())}
		for r := range racks {
			tr.RackPower = append(tr.RackPower, math.Float64bits(f.RackPowerW(r)))
		}
		for z := range zones {
			tr.ZonePower = append(tr.ZonePower, math.Float64bits(f.ZonePowerW(z)))
		}
		f.Sync(e.Now())
		tr.Energy = math.Float64bits(f.EnergyJ())
		return tr
	}
	if ref, got := run(1), run(2); !reflect.DeepEqual(got, ref) {
		t.Errorf("workers=2 trip scan %+v, inline %+v", got, ref)
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
	// Mapping stayed consistent after the placement.
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

// TestZonePlacementContract pins PreferCoolingSensitiveZones on a
// 1,536-server facility of 16 racks in four zones (zone = rack mod 4)
// whose sensitivities tie in two zones, on a 2-worker pool. While some
// server is not Off — booted by a handle in the top slot, active, then
// shutting down — it returns an error naming that server and changes no
// rack, zone, zone list or rebase count. Once every server is Off it
// places them: slot i takes the rack and zone of the i-th server of a
// stable sort of the original placement by descending sensitivity,
// every rack keeps its servers-per-rack count, each zone's slot list
// holds its slots in order, and placing again changes nothing. After a
// full-load dispatch, each rack's power is the sum of its servers' and
// the aggregates verify.
func TestZonePlacementContract(t *testing.T) {
	const racks, perRack, zones = 16, 96, 4
	sens := []float64{0.5, 0.9, 0.5, 0.7}
	srvCfg := testServerConfig()
	roomCfg := cooling.RoomConfig{
		CRACs:       []cooling.CRACConfig{cooling.DefaultCRAC("c0")},
		PhysicsTick: cooling.DefaultPhysicsTick,
	}
	zoneOfRack := make([]int, racks)
	for z := range zones {
		roomCfg.Zones = append(roomCfg.Zones, cooling.DefaultZone(fmt.Sprintf("z%d", z)))
		roomCfg.Sensitivity = append(roomCfg.Sensitivity, []float64{sens[z]})
	}
	for r := range zoneOfRack {
		zoneOfRack[r] = r % zones
	}
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, DataCenterConfig{
		Name:           "dc-place",
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 4, RacksPerPDU: 4,
			RackRatedW: perRack * srvCfg.PeakPower * 1.05, Oversubscription: 1,
		},
		Room:       roomCfg,
		ZoneOfRack: zoneOfRack,
		Plant:      cooling.DefaultPlantConfig(),
		Pool:       newTestPool(t, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := dc.Fleet()
	n := f.Size()
	if len(f.shards) < 2 {
		t.Fatalf("%d servers in %d shard; want several", n, len(f.shards))
	}
	type placement struct {
		rack, zone []int
		rebases    int
	}
	placed := func() placement {
		p := placement{rack: make([]int, n), zone: make([]int, n), rebases: f.Rebases()}
		for i := range n {
			p.rack[i], p.zone[i] = dc.RackOfServer(i), dc.ZoneOfServer(i)
		}
		return p
	}
	run := func(d time.Duration) {
		t.Helper()
		if err := e.Run(e.Now() + d); err != nil {
			t.Fatal(err)
		}
	}

	orig := placed()
	top := f.ServerAt(n - 1)
	refuse := func(what string) {
		t.Helper()
		err := dc.PreferCoolingSensitiveZones()
		if err == nil || !strings.Contains(err.Error(), top.Name()) {
			t.Fatalf("%s: placement with %s %v returned %v, want an error naming it", what, top.Name(), top.State(), err)
		}
		if !reflect.DeepEqual(placed(), orig) {
			t.Fatalf("%s: the refused placement changed the facility", what)
		}
	}
	top.PowerOn(e)
	refuse("booting")
	run(srvCfg.BootDelay)
	refuse("active")
	top.PowerOff(e)
	refuse("shutting down")
	run(srvCfg.ShutdownDelay)

	if err := dc.PreferCoolingSensitiveZones(); err != nil {
		t.Fatal(err)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	room := dc.Room()
	if room.ZoneSensitivity(0) != room.ZoneSensitivity(2) {
		t.Fatal("zones 0 and 2 no longer tie; the test lost its tie coverage")
	}
	sort.SliceStable(order, func(a, b int) bool {
		return room.ZoneSensitivity(orig.zone[order[a]]) > room.ZoneSensitivity(orig.zone[order[b]])
	})
	got := placed()
	count := make([]int, racks)
	for i, from := range order {
		if got.rack[i] != orig.rack[from] || got.zone[i] != orig.zone[from] {
			t.Fatalf("slot %d in rack %d, zone %d; the stable sort puts rack %d, zone %d there",
				i, got.rack[i], got.zone[i], orig.rack[from], orig.zone[from])
		}
		count[got.rack[i]]++
	}
	for r, k := range count {
		if k != perRack {
			t.Fatalf("rack %d holds %d servers, want %d", r, k, perRack)
		}
	}
	if err := dc.PreferCoolingSensitiveZones(); err != nil {
		t.Fatal(err)
	}
	if again := placed(); !reflect.DeepEqual(again.rack, got.rack) || !reflect.DeepEqual(again.zone, got.zone) {
		t.Fatal("placing a placed facility again moved servers")
	}

	f.SetTarget(n)
	run(srvCfg.BootDelay + time.Second)
	f.Dispatch(e.Now(), float64(n)*srvCfg.Capacity)
	want := make([]float64, racks)
	for i, s := range f.Servers() {
		want[dc.RackOfServer(i)] += s.Power()
	}
	for r, w := range want {
		if got := f.RackPowerW(r); math.Abs(got-w) > 1e-9*w || w == 0 {
			t.Fatalf("rack %d draws %v W; its servers draw %v W", r, got, w)
		}
	}
	if err := f.VerifyAggregates(); err != nil {
		t.Fatal(err)
	}
}

// TestSampleZeroesShedServers: each telemetry round holds every server's
// power and utilization in its two frame columns, after the zone
// inlets, including the zeros of servers shed since the previous round,
// which sit past the fleet's live bound where the round stops.
func TestSampleZeroesShedServers(t *testing.T) {
	e := sim.NewEngine(1)
	dc := shardedTestDC(t, e, newTestPool(t, 2), 512, time.Minute)
	if _, err := dc.Attach(); err != nil {
		t.Fatal(err)
	}
	f, cfg := dc.Fleet(), testServerConfig()
	n, base := f.Size(), dc.Room().Zones()
	row := make([]float64, dc.Frames().Width())
	check := func(what string) {
		t.Helper()
		if _, ok := dc.Frames().LatestInto(row); !ok {
			t.Fatalf("%s: no frame sampled", what)
		}
		for i, s := range f.Servers() {
			if row[base+2*i] != s.Power() || row[base+2*i+1] != s.Utilization() {
				t.Fatalf("%s: position %d (%v) sampled at %v W, %v utilization; reads %v W, %v",
					what, i, s.State(), row[base+2*i], row[base+2*i+1], s.Power(), s.Utilization())
			}
		}
	}
	f.SetTarget(n)
	if err := e.Run(cfg.BootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	f.Dispatch(e.Now(), 0.6*float64(n)*cfg.Capacity)
	if err := e.Run(e.Now() + time.Minute); err != nil {
		t.Fatal(err)
	}
	check("all on")
	f.SetTarget(n / 4)
	if err := e.Run(e.Now() + 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if f.OnCount() != n/4 || f.PowerW() == 0 {
		t.Fatalf("shed to %d on at %v W, want %d on", f.OnCount(), f.PowerW(), n/4)
	}
	check("after shedding")
}

// TestFrameKeysMatchSprintf: frameKeys names the facility frame's columns
// exactly as formatting each name with fmt.Sprintf would, zone inlets
// first, for empty and one-server fleets, fleets whose indexes cross
// from 4 to 5 digits, and zone counts that cross from 2 to 3.
func TestFrameKeysMatchSprintf(t *testing.T) {
	for _, c := range []struct{ servers, zones int }{
		{0, 1}, {1, 1}, {1, 0}, {9_999, 2}, {10_000, 2}, {10_001, 3}, {2, 99}, {2, 100}, {2, 101},
	} {
		want := make([]string, 0, c.zones+2*c.servers)
		for z := range c.zones {
			want = append(want, fmt.Sprintf("zone%02d/inlet", z))
		}
		for i := range c.servers {
			want = append(want, fmt.Sprintf("srv%04d/power", i), fmt.Sprintf("srv%04d/util", i))
		}
		if got := frameKeys(c.servers, c.zones); !reflect.DeepEqual(got, want) {
			t.Errorf("%d servers, %d zones: keys differ from Sprintf's", c.servers, c.zones)
		}
	}
}
