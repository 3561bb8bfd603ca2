// Fleet-scale macro benchmarks: the full fig4-style facility — power
// tree, cooling room, thermal trips, rack caps with enforcement, the
// coordinated MRM manager, telemetry sampling — run end to end at 1k,
// 10k, and 100k servers. These measure what the paper's MRM layer (§5)
// actually costs per simulated hour at data-center scale; the per-tick
// aggregate maintenance in internal/core is what keeps the cost
// proportional to changes rather than fleet size. Only public APIs are
// used, so this file also compiles against older trees for apples-to-
// apples before/after comparisons.
package repro_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/onoff"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scaleHorizon is the simulated time each iteration covers.
const scaleHorizon = 2 * time.Hour

// scaleOpts parameterizes a scale run. The zero value is the historical
// configuration with the parallel executor at its GOMAXPROCS default.
type scaleOpts struct {
	// workers is the sharded-loop execution width: 0 means GOMAXPROCS,
	// 1 pins the inline (serial) executor. Results are identical at any
	// width; only wall time moves.
	workers int
	// cadence is the sample/decision/enforcement period (0 = 1 minute).
	// The 1M tier stretches it to bound the O(N) rounds per iteration.
	cadence time.Duration
}

// runScaleDC builds a 100-rack facility with nServers servers and runs
// the fig4 control stack over scaleHorizon: coordinated manager and cap
// enforcement on cadence-period decisions, 10 s physics ticks,
// cadence-period telemetry samples, PUE probes every 15 minutes.
func runScaleDC(b *testing.B, nServers int, o scaleOpts) {
	b.Helper()
	cadence := o.cadence
	if cadence == 0 {
		cadence = time.Minute
	}
	workers := o.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := par.New(workers)
	defer pool.Close()
	const racks = 100
	perRack := nServers / racks
	if perRack*racks != nServers {
		b.Fatalf("nServers %d not divisible by %d racks", nServers, racks)
	}
	srvCfg := server.DefaultConfig()
	// Cooling and fans carry nServers/40 times the fig4 facility's load,
	// so zone temperatures stay in the same regime at every tier.
	airScale := float64(nServers) / 40

	e := sim.NewEngine(1)
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 2_000 * airScale
	zoneOfRack := make([]int, racks)
	for r := range zoneOfRack {
		zoneOfRack[r] = r % 4
	}
	dc, err := core.NewDataCenter(e, core.DataCenterConfig{
		Name:           "dc-scale",
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 2, PDUsPerUPS: 5, RacksPerPDU: 10,
			RackRatedW: float64(perRack) * srvCfg.PeakPower * 1.05, Oversubscription: 1,
		},
		Room:        cooling.FourZoneConfig(airScale),
		ZoneOfRack:  zoneOfRack,
		Plant:       plant,
		SampleEvery: cadence,
		Pool:        pool,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dc.Attach(); err != nil {
		b.Fatal(err)
	}
	if err := dc.PreferCoolingSensitiveZones(); err != nil {
		b.Fatal(err)
	}

	rackServers := make([][]*server.Server, racks)
	for i, s := range dc.Fleet().Servers() {
		rackServers[dc.RackOfServer(i)] = append(rackServers[dc.RackOfServer(i)], s)
	}
	for _, rack := range dc.Topology().Racks {
		rack.SetCap(float64(perRack) * srvCfg.PeakPower * 0.93)
	}
	enforcer, err := core.NewCapEnforcer(dc.Topology().Racks, rackServers)
	if err != nil {
		b.Fatal(err)
	}
	e.Every(cadence, func(eng *sim.Engine) { enforcer.Enforce(eng.Now()) })

	demand := func(now time.Duration) float64 {
		h := now.Hours() - 24*float64(int(now.Hours()/24))
		frac := 0.2 + 0.55*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
		return frac * float64(nServers) * srvCfg.Capacity
	}
	mgr, err := core.NewManagerForFleet(e, core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      nServers,
		Queue:          workload.DefaultQueueModel(),
		SLA:            100 * time.Millisecond,
		DecisionPeriod: cadence,
		Mode:           core.ModeCoordinated,
		InitialOn:      nServers / 2,
		Trigger:        onoff.DelayTrigger{High: 60 * time.Millisecond, Low: 25 * time.Millisecond, StepUp: 1, StepDown: 1, Min: 1, Max: nServers},
	}, dc.Fleet(), demand)
	if err != nil {
		b.Fatal(err)
	}
	mgr.Start()
	e.Every(15*time.Minute, func(eng *sim.Engine) {
		_, _, _ = dc.PUEAt(18, 0.5)
	})
	if err := e.Run(scaleHorizon); err != nil {
		b.Fatal(err)
	}
	// Touch the results so nothing is dead-code-eliminated.
	dc.Fleet().Sync(scaleHorizon)
	if dc.Fleet().EnergyJ() <= 0 {
		b.Fatal("no energy accumulated")
	}
}

// benchScaleDC reports simulated server-hours per wall second, the
// throughput metric the benchdiff gate watches at scale.
func benchScaleDC(b *testing.B, nServers int, o scaleOpts) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runScaleDC(b, nServers, o)
	}
	srvHours := float64(b.N) * float64(nServers) * scaleHorizon.Hours()
	b.ReportMetric(srvHours/b.Elapsed().Seconds(), "srv-h/sec")
}

// BenchmarkDataCenter1k is the CI-sized tier (runs in short mode).
func BenchmarkDataCenter1k(b *testing.B) { benchScaleDC(b, 1_000, scaleOpts{}) }

// BenchmarkDataCenter10k is the headline scale tier: the fig4 control
// stack over ten thousand servers.
func BenchmarkDataCenter10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k tier skipped in short mode")
	}
	benchScaleDC(b, 10_000, scaleOpts{})
}

// BenchmarkDataCenter100k demonstrates headroom at a hundred thousand
// servers — the "millions of users" operating point of the roadmap.
// Workers default to GOMAXPROCS; BenchmarkDataCenter100kWorkers1 below
// is the serial pin, so the pair measures the parallel speedup on
// whatever machine runs them.
func BenchmarkDataCenter100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k tier skipped in short mode")
	}
	benchScaleDC(b, 100_000, scaleOpts{})
}

// BenchmarkDataCenter100kWorkers1 runs the 100k tier with the sharded
// loops pinned to the inline executor — the workers=1 baseline of the
// parallel-speedup comparison. Same bits, different wall clock.
func BenchmarkDataCenter100kWorkers1(b *testing.B) {
	if testing.Short() {
		b.Skip("100k tier skipped in short mode")
	}
	benchScaleDC(b, 100_000, scaleOpts{workers: 1})
}

// BenchmarkDataCenter1M is the million-server tier: a 2-simulated-hour
// run of the full control stack at 10,000 servers per rack. Sampling and
// decisions stretch to a 15-minute cadence so each iteration stays
// bounded by the O(N) rounds rather than drowned by them; the physics
// tick and PUE probes keep their usual periods.
func BenchmarkDataCenter1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M tier skipped in short mode")
	}
	benchScaleDC(b, 1_000_000, scaleOpts{cadence: 15 * time.Minute})
}
