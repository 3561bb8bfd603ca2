package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
)

// A fleetLayout maps a benchmark fleet's slots to racks and zones.
type fleetLayout int

const (
	// interleaved has 40-server racks and puts slot i in zone i%4, so the
	// zone changes at every slot.
	interleaved fleetLayout = iota
	// flat has no groups, like a geo site's fleet.
	flat
	// racks has 40-server racks and puts rack r in zone r%4, like the
	// facilities that DataCenter assembles.
	racks
)

// benchFleet boots a fleet of n servers (all active) in the given layout
// for the dispatch and aggregate microbenchmarks and allocation tests.
func benchFleet(tb testing.TB, n int, layout fleetLayout) (*sim.Engine, *Fleet) {
	tb.Helper()
	e := sim.NewEngine(1)
	cfg := server.DefaultConfig()
	f, err := NewFleet(e, cfg, n)
	if err != nil {
		tb.Fatal(err)
	}
	if layout != flat {
		// Synthetic rack/zone grouping so the per-group sums are
		// maintained, as they are inside a DataCenter.
		rackOf := make([]int, n)
		zoneOf := make([]int, n)
		nRacks := (n + 39) / 40
		for i := range rackOf {
			rackOf[i] = i / 40
			zoneOf[i] = i % 4
			if layout == racks {
				zoneOf[i] = rackOf[i] % 4
			}
		}
		if err := f.SetPowerGroups(rackOf, zoneOf, nRacks, 4); err != nil {
			tb.Fatal(err)
		}
	}
	f.SetTarget(n)
	if err := e.Run(e.Now() + cfg.BootDelay + time.Second); err != nil {
		tb.Fatal(err)
	}
	f.Sync(e.Now())
	if f.ActiveCount() != n {
		tb.Fatalf("active = %d after boot, want %d", f.ActiveCount(), n)
	}
	return e, f
}

// benchFleetOn is benchFleet with the fleet then shed to its first on
// servers, the rest Off at the tail of the activation order.
func benchFleetOn(tb testing.TB, n, on int, layout fleetLayout) (*sim.Engine, *Fleet) {
	tb.Helper()
	e, f := benchFleet(tb, n, layout)
	f.SetTarget(on)
	if err := e.Run(e.Now() + server.DefaultConfig().ShutdownDelay + time.Second); err != nil {
		tb.Fatal(err)
	}
	if f.ActiveCount() != on || f.OnCount() != on {
		tb.Fatalf("active = %d, on = %d after shedding, want %d", f.ActiveCount(), f.OnCount(), on)
	}
	return e, f
}

// A fleetTier is a benchmark fleet: n servers, on of them powered, in a
// layout.
type fleetTier struct {
	n, on  int
	layout fleetLayout
}

// fleetTiers are the dispatch and sync tiers: fully powered interleaved
// fleets of 1k, 10k and 100k servers, a 10k one with its last 5k Off,
// and half-powered 10k fleets with a geo site's layout and a facility's.
var fleetTiers = []fleetTier{
	{1_000, 1_000, interleaved}, {10_000, 10_000, interleaved}, {10_000, 5_000, interleaved},
	{100_000, 100_000, interleaved}, {10_000, 5_000, flat}, {10_000, 5_000, racks},
}

// name names the tier: "n=N", ",on=K" if some servers are Off, and the
// layout unless it is interleaved.
func (t fleetTier) name() string {
	s := fmt.Sprintf("n=%d", t.n)
	if t.on < t.n {
		s += fmt.Sprintf(",on=%d", t.on)
	}
	switch t.layout {
	case flat:
		s += ",flat"
	case racks:
		s += ",racks"
	}
	return s
}

// BenchmarkFleetAggregateReads measures the O(1) aggregate surface the
// control loops poll every decision period. Must be allocation-free.
func BenchmarkFleetAggregateReads(b *testing.B) {
	_, f := benchFleet(b, 1_000, interleaved)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.PowerW() + f.EnergyJ()
		sink += float64(f.OnCount() + f.ActiveCount() + f.Trips())
		for z := 0; z < 4; z++ {
			sink += f.ZonePowerW(z)
		}
	}
	if sink < 0 {
		b.Fatal("impossible negative aggregate")
	}
}

// BenchmarkFleetDispatch measures one spread-dispatch round — the
// per-decision hot path of every manager mode — over the fleetTiers (the
// 100k tier outside -short); dispatch skips an Off tail. Must be
// allocation-free.
func BenchmarkFleetDispatch(b *testing.B) {
	for _, tier := range fleetTiers {
		b.Run(tier.name(), func(b *testing.B) {
			if tier.n > 10_000 && testing.Short() {
				b.Skip("100k tier skipped in -short mode")
			}
			e, f := benchFleetOn(b, tier.n, tier.on, tier.layout)
			cfg := server.DefaultConfig()
			offered := 0.6 * float64(tier.on) * cfg.Capacity
			// Dispatch once before the timer: the fleet allocates its fill
			// table on its first plan, a one-time cost that a 1x run
			// would otherwise count as a per-dispatch allocation.
			now := e.Now() + time.Second
			_, _ = f.Dispatch(now, offered)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += time.Second
				_, _ = f.Dispatch(now, offered)
			}
		})
	}
}

// BenchmarkFleetSync measures one fleet Sync — the write of every server
// that is not Off plus the exact Rebase — over the fleetTiers; an Off
// tail is neither walked nor written. A geo site runs one at every epoch
// barrier. Must be allocation-free.
func BenchmarkFleetSync(b *testing.B) {
	for _, tier := range fleetTiers {
		b.Run(tier.name(), func(b *testing.B) {
			if tier.n > 10_000 && testing.Short() {
				b.Skip("100k tier skipped in -short mode")
			}
			e, f := benchFleetOn(b, tier.n, tier.on, tier.layout)
			now := e.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += time.Second
				f.Sync(now)
			}
		})
	}
}

// benchDC assembles an attached mid-size facility (40 racks × 25
// servers = 1,000) for the physics-tick and sample microbenchmarks.
func benchDC(b *testing.B, sampleEvery time.Duration) (*sim.Engine, *DataCenter) {
	b.Helper()
	e := sim.NewEngine(1)
	cfg := smallDCConfig()
	cfg.ServersPerRack = 25
	cfg.Topology.UPSCount = 2
	cfg.Topology.PDUsPerUPS = 2
	cfg.Topology.RacksPerPDU = 10
	cfg.Topology.RackRatedW = 25 * cfg.ServerConfig.PeakPower * 1.05
	cfg.ZoneOfRack = make([]int, 40)
	for r := range cfg.ZoneOfRack {
		cfg.ZoneOfRack[r] = r % 2
	}
	// Cooling sized for the 1k-server load so steady state stays below
	// the trip band (the gated tick's fast path).
	for z := range cfg.Room.Zones {
		cfg.Room.Zones[z].Airflow *= 125
	}
	cfg.Plant.FanRatedW = 350 * 125
	cfg.SampleEvery = sampleEvery
	dc, err := NewDataCenter(e, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dc.Attach(); err != nil {
		b.Fatal(err)
	}
	dc.Fleet().SetTarget(500)
	if err := e.Run(e.Now() + 10*time.Minute); err != nil {
		b.Fatal(err)
	}
	return e, dc
}

// BenchmarkDataCenterPhysicsTick measures one steady-state physics tick
// interval: zone heat from the fleet's per-zone sums, cooling update,
// and the gated trip scan.
func BenchmarkDataCenterPhysicsTick(b *testing.B) {
	e, _ := benchDC(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(e.Now() + cooling.DefaultPhysicsTick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataCenterSample measures one telemetry sample round through
// the columnar frame path: the zone inlets plus the power and
// utilization of the 500 powered servers of 1,000; the Off half is
// never passed.
func BenchmarkDataCenterSample(b *testing.B) {
	e, dc := benchDC(b, time.Minute)
	now := e.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Minute
		dc.sample(now)
	}
}

// TestPhysicsTickSteadyStateAllocFree pins the tentpole claim: once the
// facility reaches steady state, a physics tick allocates nothing — the
// event kernel reuses its arena, zone heat comes from maintained sums,
// and the trip scan is gated off while inlets sit below the trip band.
func TestPhysicsTickSteadyStateAllocFree(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := smallDCConfig()
	cfg.SampleEvery = 0
	dc, err := NewDataCenter(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Attach(); err != nil {
		t.Fatal(err)
	}
	dc.Fleet().SetTarget(4)
	if err := e.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.Run(e.Now() + cooling.DefaultPhysicsTick); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state physics tick allocates %v objects per tick, want 0", allocs)
	}
}

// TestDispatchSteadyStateAllocFree pins a dispatch round and a Sync at
// zero allocations with the inline (nil) pool, from a single-shard fleet
// to a 19-shard one, all on or half on, in every layout, and on a fleet
// whose P-state ladder has 64 points: Dispatch's shard bodies are bound
// once at construction, so neither fan-out allocates a closure, the
// shards before the live bound are a subslice, and the dispatch's power
// table is sized once.
func TestDispatchSteadyStateAllocFree(t *testing.T) {
	tiers := append([]fleetTier{{40, 40, interleaved}}, fleetTiers...)
	for _, tier := range tiers {
		if tier.n > 10_000 {
			continue
		}
		t.Run(tier.name(), func(t *testing.T) {
			e, f := benchFleetOn(t, tier.n, tier.on, tier.layout)
			requireDispatchSyncAllocFree(t, e, f, 0.6*float64(tier.on)*server.DefaultConfig().Capacity)
		})
	}
	t.Run("pstates=64", func(t *testing.T) {
		cfg := server.DefaultConfig()
		cfg.PStates = cfg.PStates[:1]
		for len(cfg.PStates) < 64 {
			fr := 1 - float64(len(cfg.PStates))/128
			cfg.PStates = append(cfg.PStates, server.PState{Freq: fr, DynFactor: fr * fr * fr})
		}
		e := sim.NewEngine(1)
		f, err := NewFleet(e, cfg, 2_048)
		if err != nil {
			t.Fatal(err)
		}
		f.SetTarget(1_500)
		if err := e.Run(cfg.BootDelay + time.Second); err != nil {
			t.Fatal(err)
		}
		if err := f.SetPStateAll(e.Now(), 63); err != nil {
			t.Fatal(err)
		}
		requireDispatchSyncAllocFree(t, e, f, 0.5*float64(f.OnCount())*cfg.Capacity)
	})
}

// requireDispatchSyncAllocFree fails t unless a dispatch of offered and
// a Sync, each one second after the last write, allocate nothing.
func requireDispatchSyncAllocFree(t *testing.T, e *sim.Engine, f *Fleet, offered float64) {
	t.Helper()
	now := e.Now()
	if allocs := testing.AllocsPerRun(50, func() {
		now += time.Second
		_, _ = f.Dispatch(now, offered)
	}); allocs != 0 {
		t.Errorf("steady-state dispatch over %d servers allocates %v objects per call, want 0", f.Size(), allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		now += time.Second
		f.Sync(now)
	}); allocs != 0 {
		t.Errorf("steady-state Sync over %d servers allocates %v objects per call, want 0", f.Size(), allocs)
	}
}

// TestSetTargetCycleAllocFree: once warm, shedding all 10,000 servers
// of a fleet and booting them back — one shutdown and one boot completion
// event each — allocates nothing. Completions pop their slot from a
// block-owned queue instead of capturing it in a closure.
func TestSetTargetCycleAllocFree(t *testing.T) {
	const n = 10_000
	e, f := benchFleet(t, n, interleaved)
	cfg := server.DefaultConfig()
	cycle := func() {
		f.SetTarget(0)
		if err := e.Run(e.Now() + cfg.ShutdownDelay + time.Second); err != nil {
			t.Fatal(err)
		}
		f.SetTarget(n)
		if err := e.Run(e.Now() + cfg.BootDelay + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
		t.Errorf("SetTarget down/up cycle over %d servers allocates %v objects, want 0", n, allocs)
	}
	if f.ActiveCount() != n {
		t.Fatalf("active = %d after the cycle, want %d", f.ActiveCount(), n)
	}
}

// TestSampleSteadyStateAllocsAmortized pins the sample round: once the
// raw window is full, each round reuses the raw row retention just
// expired, so a round allocates only when it closes a bucket (one row
// per closed bucket, plus the amortized growth of the bucket index) —
// strictly less than one object per round on average. It covers the
// small test facility and a 2,048-server one whose fleet, zone and frame
// all span several shards.
func TestSampleSteadyStateAllocsAmortized(t *testing.T) {
	cases := []struct {
		name  string
		build func(*sim.Engine) *DataCenter
	}{
		{"small", func(e *sim.Engine) *DataCenter {
			dc, err := NewDataCenter(e, smallDCConfig())
			if err != nil {
				t.Fatal(err)
			}
			return dc
		}},
		{"n=2048", func(e *sim.Engine) *DataCenter {
			return shardedTestDC(t, e, nil, 512, 15*time.Second)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			// Sampling must be enabled (15 s) so the frame plumbing
			// exists, but the rounds are driven by hand below (past the
			// engine's own callbacks) so the measurement covers exactly
			// one round per run.
			dc := tc.build(e)
			if _, err := dc.Attach(); err != nil {
				t.Fatal(err)
			}
			dc.Fleet().SetTarget(dc.Fleet().Size() / 2)
			if err := e.Run(10 * time.Minute); err != nil {
				t.Fatal(err)
			}
			// Warm until the raw ring has filled and been through
			// compaction cycles (retention 1 h at 15 s rounds = 240 live
			// rounds).
			now := e.Now()
			for i := 0; i < 600; i++ {
				now += 15 * time.Second
				dc.sample(now)
			}
			allocs := testing.AllocsPerRun(400, func() {
				now += 15 * time.Second
				dc.sample(now)
			})
			if allocs >= 1 {
				t.Errorf("steady-state sample averages %v allocations per round, want < 1", allocs)
			}
		})
	}
}

// BenchmarkPreferCoolingSensitiveZones times the §5.1 zone preference on
// a fresh 100,000-server facility of 100 racks in the four-zone room,
// the shape of the 100k scale tier: the call that places the servers
// before the manager starts.
func BenchmarkPreferCoolingSensitiveZones(b *testing.B) {
	const racks, perRack = 100, 1000
	srvCfg := server.DefaultConfig()
	zoneOfRack := make([]int, racks)
	for r := range zoneOfRack {
		zoneOfRack[r] = r % 4
	}
	cfg := DataCenterConfig{
		Name:           "dc-place",
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 2, PDUsPerUPS: 5, RacksPerPDU: 10,
			RackRatedW: perRack * srvCfg.PeakPower * 1.05, Oversubscription: 1,
		},
		Room:       cooling.FourZoneConfig(racks * perRack / 40),
		ZoneOfRack: zoneOfRack,
		Plant:      cooling.DefaultPlantConfig(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dc, err := NewDataCenter(sim.NewEngine(1), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := dc.PreferCoolingSensitiveZones(); err != nil {
			b.Fatal(err)
		}
	}
}
