package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/server"
	"repro/internal/sim"
)

// benchFleet boots a fleet of n servers (all active) for the dispatch
// and aggregate microbenchmarks and allocation tests.
func benchFleet(tb testing.TB, n int) (*sim.Engine, *Fleet) {
	tb.Helper()
	e := sim.NewEngine(1)
	cfg := server.DefaultConfig()
	f, err := NewFleet(e, cfg, n)
	if err != nil {
		tb.Fatal(err)
	}
	// Synthetic rack/zone grouping so the per-group sums are maintained,
	// as they are inside a DataCenter.
	rackOf := make([]int, n)
	zoneOf := make([]int, n)
	nRacks := (n + 39) / 40
	for i := range rackOf {
		rackOf[i] = i / 40
		zoneOf[i] = i % 4
	}
	if err := f.SetPowerGroups(rackOf, zoneOf, nRacks, 4); err != nil {
		tb.Fatal(err)
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
func benchFleetOn(tb testing.TB, n, on int) (*sim.Engine, *Fleet) {
	tb.Helper()
	e, f := benchFleet(tb, n)
	f.SetTarget(on)
	if err := e.Run(e.Now() + server.DefaultConfig().ShutdownDelay + time.Second); err != nil {
		tb.Fatal(err)
	}
	if f.ActiveCount() != on || f.OnCount() != on {
		tb.Fatalf("active = %d, on = %d after shedding, want %d", f.ActiveCount(), f.OnCount(), on)
	}
	return e, f
}

// tierName names a dispatch tier of n servers, on of them powered.
func tierName(n, on int) string {
	if on < n {
		return fmt.Sprintf("n=%d,on=%d", n, on)
	}
	return fmt.Sprintf("n=%d", n)
}

// BenchmarkFleetAggregateReads measures the O(1) aggregate surface the
// control loops poll every decision period. Must be allocation-free.
func BenchmarkFleetAggregateReads(b *testing.B) {
	_, f := benchFleet(b, 1_000)
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
// per-decision hot path of every manager mode — over fully powered
// fleets of 1k, 10k and (outside -short) 100k servers, and over a 10k
// fleet with its last 5k servers Off, which dispatch skips. Must be
// allocation-free.
func BenchmarkFleetDispatch(b *testing.B) {
	for _, tier := range []struct{ n, on int }{{1_000, 1_000}, {10_000, 10_000}, {10_000, 5_000}, {100_000, 100_000}} {
		n, on := tier.n, tier.on
		b.Run(tierName(n, on), func(b *testing.B) {
			if n > 10_000 && testing.Short() {
				b.Skip("100k tier skipped in -short mode")
			}
			e, f := benchFleetOn(b, n, on)
			cfg := server.DefaultConfig()
			offered := 0.6 * float64(on) * cfg.Capacity
			now := e.Now()
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
// that is not Off plus the exact Rebase — over BenchmarkFleetDispatch's
// tiers; the n=10000,on=5000 tier's Off tail is neither walked nor
// written. A geo site runs one at every epoch barrier. Must be
// allocation-free.
func BenchmarkFleetSync(b *testing.B) {
	for _, tier := range []struct{ n, on int }{{1_000, 1_000}, {10_000, 10_000}, {10_000, 5_000}, {100_000, 100_000}} {
		n, on := tier.n, tier.on
		b.Run(tierName(n, on), func(b *testing.B) {
			if n > 10_000 && testing.Short() {
				b.Skip("100k tier skipped in -short mode")
			}
			e, f := benchFleetOn(b, n, on)
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

// BenchmarkDataCenterSample measures one telemetry sample round: 2,000
// per-server points plus zone inlets through the columnar frame path.
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

// TestDispatchSteadyStateAllocFree pins a dispatch round at zero
// allocations with the inline (nil) pool, from a single-shard fleet to a
// 19-shard one, all on or half on: Dispatch's shard bodies are bound
// once at construction, so neither fan-out allocates a closure, and the
// shards before the live bound are a subslice.
func TestDispatchSteadyStateAllocFree(t *testing.T) {
	for _, tier := range []struct{ n, on int }{{40, 40}, {1_000, 1_000}, {10_000, 10_000}, {10_000, 5_000}} {
		n, on := tier.n, tier.on
		t.Run(tierName(n, on), func(t *testing.T) {
			e, f := benchFleetOn(t, n, on)
			offered := 0.6 * float64(on) * server.DefaultConfig().Capacity
			now := e.Now()
			allocs := testing.AllocsPerRun(50, func() {
				now += time.Second
				_, _ = f.Dispatch(now, offered)
			})
			if allocs != 0 {
				t.Errorf("steady-state dispatch over %d servers allocates %v objects per call, want 0", n, allocs)
			}
		})
	}
}

// TestSetTargetCycleAllocFree: once warm, shedding all 10,000 servers
// of a fleet and booting them back — one shutdown and one boot completion
// event each — allocates nothing. Completions pop their slot from a
// block-owned queue instead of capturing it in a closure.
func TestSetTargetCycleAllocFree(t *testing.T) {
	const n = 10_000
	e, f := benchFleet(t, n)
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
