// Tests for the sharded (deterministic-parallel) fleet paths: dispatch,
// physics trip scan, telemetry sampling, and rebase scheduling must
// produce bit-identical results at every worker count, because shard
// structure is a pure function of fleet size (see internal/par).
package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/sim"
)

// newTestPool builds a pool of the given width with cleanup registered.
// Width 1 yields the nil (inline) pool — the serial configuration.
func newTestPool(tb testing.TB, workers int) *par.Pool {
	tb.Helper()
	p := par.New(workers)
	tb.Cleanup(p.Close)
	return p
}

// shardedTestDC builds a single-zone facility with 4 racks × perRack
// servers wired to the given pool. perRack >= par.MinShardLen/2 gives
// both the fleet and the zone more than one shard.
func shardedTestDC(tb testing.TB, e *sim.Engine, pool *par.Pool, perRack int, sampleEvery time.Duration) *DataCenter {
	tb.Helper()
	const racks = 4
	srvCfg := testServerConfig()
	n := racks * perRack
	airScale := float64(n) / 40
	zone := cooling.DefaultZone("z0")
	zone.Airflow *= airScale
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 2_000 * airScale
	dc, err := NewDataCenter(e, DataCenterConfig{
		Name:           "dc-par",
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 2, RacksPerPDU: 2,
			RackRatedW: float64(perRack) * srvCfg.PeakPower * 1.05, Oversubscription: 1,
		},
		Room: cooling.RoomConfig{
			Zones:       []cooling.ZoneConfig{zone},
			CRACs:       []cooling.CRACConfig{cooling.DefaultCRAC("c0")},
			Sensitivity: [][]float64{{0.6}},
			PhysicsTick: cooling.DefaultPhysicsTick,
		},
		ZoneOfRack:  []int{0, 0, 0, 0},
		Plant:       plant,
		SampleEvery: sampleEvery,
		Pool:        pool,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return dc
}

// fleetTrace is the bit-level record of one sharded fleet scenario.
type fleetTrace struct {
	Power, Energy     []uint64
	Dropped, MaxU     []uint64
	On, Active, Trips []int
}

// runShardedFleetScenario drives a 2048-server (four-shard) fleet
// through boots, dispatches, and shrinks, recording the exact float bits
// of every aggregate along the way.
func runShardedFleetScenario(t *testing.T, workers int) fleetTrace {
	t.Helper()
	e := sim.NewEngine(1)
	const n = 2048
	cfg := testServerConfig()
	f, err := NewFleet(e, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	f.SetParallel(newTestPool(t, workers))

	var tr fleetTrace
	rec := func() {
		f.Sync(e.Now())
		tr.Power = append(tr.Power, math.Float64bits(f.PowerW()))
		tr.Energy = append(tr.Energy, math.Float64bits(f.EnergyJ()))
		tr.On = append(tr.On, f.OnCount())
		tr.Active = append(tr.Active, f.ActiveCount())
		tr.Trips = append(tr.Trips, f.Trips())
	}

	f.SetTarget(3 * n / 4)
	if err := e.Run(cfg.BootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	rec()
	for k := 0; k < 14; k++ {
		now := e.Now()
		offered := (0.15 + 0.08*float64(k%9)) * float64(n) * cfg.Capacity
		dropped, maxU := f.Dispatch(now, offered)
		tr.Dropped = append(tr.Dropped, math.Float64bits(dropped))
		tr.MaxU = append(tr.MaxU, math.Float64bits(maxU))
		switch k {
		case 5:
			f.SetTarget(n / 3)
		case 9:
			f.SetTarget(n - 7)
		}
		if err := e.Run(now + time.Minute); err != nil {
			t.Fatal(err)
		}
		rec()
	}
	if err := f.VerifyAggregates(); err != nil {
		t.Errorf("workers=%d: VerifyAggregates: %v", workers, err)
	}
	return tr
}

// TestShardedFleetBitIdenticalAcrossWorkers is the core determinism
// contract: the sharded dispatch/aggregation path yields the same float
// bits whether shards run inline or over 2, 4, or 8 workers.
func TestShardedFleetBitIdenticalAcrossWorkers(t *testing.T) {
	ref := runShardedFleetScenario(t, 1)
	for _, w := range []int{2, 4, 8} {
		got := runShardedFleetScenario(t, w)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d trace diverged from the inline trace", w)
		}
	}
}

// dcTrace is the bit-level record of one full-facility scenario.
type dcTrace struct {
	Power, Energy []uint64
	Racks         []uint64
	Dropped, MaxU []uint64
	FrameXor      uint64
	FrameT        time.Duration
	Trips         []int
	ScanTrips     int
	Rebases       int
}

// runShardedDCScenario runs the fig4-style control surface (physics
// ticks, telemetry samples, dispatch, zone placement, a forced sharded
// trip scan) over a 2048-server single-zone facility.
func runShardedDCScenario(t *testing.T, workers int) dcTrace {
	t.Helper()
	e := sim.NewEngine(1)
	srvCfg := testServerConfig()
	dc := shardedTestDC(t, e, newTestPool(t, workers), 512, time.Minute)
	if _, err := dc.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := dc.PreferCoolingSensitiveZones(); err != nil {
		t.Fatal(err)
	}
	f := dc.Fleet()
	n := f.Size()

	var tr dcTrace
	rec := func() {
		f.Sync(e.Now())
		tr.Power = append(tr.Power, math.Float64bits(f.PowerW()))
		tr.Energy = append(tr.Energy, math.Float64bits(f.EnergyJ()))
		for r := range dc.Topology().Racks {
			tr.Racks = append(tr.Racks, math.Float64bits(f.RackPowerW(r)))
		}
		tr.Trips = append(tr.Trips, f.Trips())
	}

	f.SetTarget(3 * n / 4)
	if err := e.Run(srvCfg.BootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	rec()
	for k := 0; k < 12; k++ {
		now := e.Now()
		offered := (0.2 + 0.07*float64(k%7)) * float64(n) * srvCfg.Capacity
		dropped, maxU := f.Dispatch(now, offered)
		tr.Dropped = append(tr.Dropped, math.Float64bits(dropped))
		tr.MaxU = append(tr.MaxU, math.Float64bits(maxU))
		if k == 7 {
			f.SetTarget(n / 2)
		}
		if err := e.Run(now + time.Minute); err != nil {
			t.Fatal(err)
		}
		rec()
	}

	// The latest telemetry frame, folded to one checksum: the sharded
	// frame fill and the columnar AppendPar must be byte-stable too.
	row := make([]float64, dc.Frames().Width())
	ft, ok := dc.Frames().LatestInto(row)
	if !ok {
		t.Fatal("no telemetry frame sampled")
	}
	tr.FrameT = ft
	for i, v := range row {
		tr.FrameXor ^= math.Float64bits(v) * uint64(i+1)
	}

	// Force the sharded trip scan: an inlet above every trip threshold
	// routes a burst of concurrent state transitions through the
	// per-shard accumulators.
	trips := f.Trips()
	f.observeInlets(e.Now(), []float64{srvCfg.TripTempC + 10})
	tr.ScanTrips = f.Trips() - trips
	rec()
	tr.Rebases = f.Rebases()
	if err := f.VerifyAggregates(); err != nil {
		t.Errorf("workers=%d: VerifyAggregates: %v", workers, err)
	}
	return tr
}

// TestShardedDataCenterBitIdenticalAcrossWorkers runs the full facility
// loop — sharded physics scan, sharded sample, sharded dispatch — and
// requires every recorded bit to match the inline run.
func TestShardedDataCenterBitIdenticalAcrossWorkers(t *testing.T) {
	if dc := shardedTestDC(t, sim.NewEngine(1), nil, 512, time.Minute); len(dc.Fleet().shards) < 2 {
		t.Fatal("test facility has a single shard")
	}
	ref := runShardedDCScenario(t, 1)
	if ref.ScanTrips == 0 {
		t.Fatal("forced trip scan caused no trip; scenario lost its coverage")
	}
	for _, w := range []int{2, 4} {
		got := runShardedDCScenario(t, w)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d facility trace diverged from the inline trace", w)
		}
	}
}

// TestRebaseOncePerSampleRoundSharded pins the MaybeRebase cadence under
// parallel sampling: one count per sample round regardless of how many
// shards the round fanned out to, so the O(N) exact rebase still runs
// every rebaseEvery-th round and no more.
func TestRebaseOncePerSampleRoundSharded(t *testing.T) {
	e := sim.NewEngine(1)
	dc := shardedTestDC(t, e, newTestPool(t, 4), 512, time.Second)
	if _, err := dc.Attach(); err != nil {
		t.Fatal(err)
	}
	r0 := dc.Fleet().Rebases()
	rounds := 2 * rebaseEvery
	if err := e.Run(time.Duration(rounds) * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := dc.Fleet().Rebases() - r0; got != 2 {
		t.Errorf("%d sample rounds triggered %d rebases, want 2 (once per %d rounds)",
			rounds, got, rebaseEvery)
	}
}

// BenchmarkPhysicsTickParallel measures the trip scan a hot physics
// tick runs at 1/2/4/8 workers: each iteration trips every server of a
// booted 4096-server zone. The zone boots again between iterations with
// the timer stopped, so every iteration trips the same servers.
func BenchmarkPhysicsTickParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			e := sim.NewEngine(1)
			srvCfg := testServerConfig()
			dc := shardedTestDC(b, e, newTestPool(b, w), 1024, 0)
			f := dc.Fleet()
			if len(f.shards) < 2 {
				b.Fatal("fleet has a single shard")
			}
			hot := []float64{srvCfg.TripTempC + 10}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f.SetTarget(f.Size())
				if err := e.Run(e.Now() + srvCfg.BootDelay + time.Second); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				f.observeInlets(e.Now(), hot)
			}
			b.StopTimer()
			if got, want := f.Trips(), b.N*f.Size(); got != want {
				b.Fatalf("%d trips over %d hot ticks, want %d", got, b.N, want)
			}
		})
	}
}
