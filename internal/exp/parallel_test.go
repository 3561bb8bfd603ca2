package exp

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/sensornet"
	"repro/internal/sim"
)

// sweepWorkers returns the worker widths the determinism sweeps cover:
// inline, 2, 4, and the GOMAXPROCS default, deduplicated by effective
// width so single-core machines don't rerun the inline case.
func sweepWorkers() []int {
	ws := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	out := ws[:0]
	for _, w := range ws {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// TestWorkerCountInvarianceAtScale is the satellite determinism sweep:
// three experiment stacks scaled to at least two fleet shards (so the
// dispatch and sampling fan-outs have work to split across workers),
// swept over workers × seeds, must produce exactly equal metrics and
// reports at every width. Invariants are disarmed because the checker is
// O(N) per event and the sweep reruns each scaled facility several times.
func TestWorkerCountInvarianceAtScale(t *testing.T) {
	cases := []struct {
		id    string
		scale int // chosen so the fleet spans two shards (1,024+ servers)
	}{
		{"fig4", 26},         // 40·scale = 1040 servers
		{"fault-outage", 33}, // 32·scale = 1056 servers
		{"users-surge", 17},  // 64·scale = 1088 servers
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		cases = cases[:1]
		seeds = seeds[:1]
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				var refMetrics map[string]float64
				var refReport string
				for _, w := range sweepWorkers() {
					env := NewEnv(seed)
					env.Scale = tc.scale
					env.Workers = w
					env.DisarmInvariants()
					res, err := RunEnv(tc.id, env)
					env.Close()
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, w, err)
					}
					m, rep := Metrics(res), res.Report()
					if refMetrics == nil {
						refMetrics, refReport = m, rep
						continue
					}
					if !reflect.DeepEqual(m, refMetrics) {
						t.Errorf("seed %d workers %d: metrics diverged from workers=1:\n got %v\nwant %v",
							seed, w, m, refMetrics)
					}
					if rep != refReport {
						t.Errorf("seed %d workers %d: report diverged from workers=1", seed, w)
					}
				}
			}
		})
	}
}

// TestGoldenWorkerInvariance reruns every registered experiment at
// several worker widths and requires exactly equal metrics across the
// sweep, plus agreement with the committed golden fixture. Combined
// with the sha256 manifest test this pins the acceptance contract: the
// fixtures are byte-identical at workers 1, 2, 4, and GOMAXPROCS.
func TestGoldenWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden sweep skipped in -short (runs every experiment 3×)")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var ref map[string]float64
			var refReport string
			for _, w := range []int{1, 2, 4} {
				env := NewEnv(1)
				env.Workers = w
				res, err := RunEnv(id, env)
				env.Close()
				if err != nil {
					t.Fatalf("workers %d: %v", w, err)
				}
				m, rep := Metrics(res), res.Report()
				if ref == nil {
					ref, refReport = m, rep
					continue
				}
				if !reflect.DeepEqual(m, ref) {
					t.Errorf("workers %d: metrics diverged:\n got %v\nwant %v", w, m, ref)
				}
				// The telemetry experiment's report includes wall-clock
				// throughput, which legitimately varies between runs.
				if id != "telemetry" && rep != refReport {
					t.Errorf("workers %d: report diverged", w)
				}
			}
			compareGolden(t, id, ref, readGolden(t, id))
		})
	}
}

// TestChaosSoakParallel is the racing variant of TestChaosSoak: the same
// randomized multi-fault program, but against a facility scaled to two
// fleet shards with a 4-wide pool armed, so outages, trips, crashes, and
// recoveries all route through the sharded concurrent paths while the
// physical-law invariants assert after every kernel event. Run with
// -race this is the data-race gate for the parallel executor.
func TestChaosSoakParallel(t *testing.T) {
	const (
		horizon = 3 * time.Hour
		scale   = 33 // 32·scale = 1056 servers: two fleet shards
	)
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		env := NewEnv(seed)
		env.Workers = 4
		e := env.NewEngine(seed)
		dc, err := outageFacility(e, scale, env.Pool())
		if err != nil {
			t.Fatal(err)
		}
		dc.Fleet().SetTarget(dc.Fleet().Size())
		if err := e.Run(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		dc.Fleet().Dispatch(e.Now(), 0.6*float64(dc.Fleet().Size())*1000)
		deg, err := core.NewDegrader(e, dc, core.DegraderConfig{})
		if err != nil {
			t.Fatal(err)
		}
		deg.Start()
		net, err := sensornet.NewNetwork(
			sensornet.DefaultNetworkConfig(dc.Room().Zones()), e.RNG().Fork("sensors"))
		if err != nil {
			t.Fatal(err)
		}
		e.Every(time.Minute, func(eng *sim.Engine) {
			net.Collect(func(z int) float64 { return dc.Room().ZoneInletC(z) })
		})
		in := fault.NewInjector(e)
		in.WireRoom(dc.Room())
		in.WireServers(dc.Fleet().Servers())
		in.WireSensors(net)
		bat, err := power.BatteryForAutonomy(dc.ITPowerW(), 5*time.Minute, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.WireUtility(fault.UtilityConfig{
			Battery:          bat,
			LoadW:            func() float64 { return dc.Flow().OutW },
			GenStartDelay:    2 * time.Minute,
			GenStartFailProb: 0.3,
			GenRetries:       2,
			GenRetryBackoff:  time.Minute,
			Tick:             10 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
		in.Subscribe(deg.OnNotice)
		events, err := fault.GenerateSchedule(e.RNG().Fork("chaos"), fault.ScheduleConfig{
			Horizon:     horizon,
			OutageEvery: time.Hour, OutageFor: 15 * time.Minute,
			CRACEvery: 45 * time.Minute, CRACFor: 30 * time.Minute,
			CrashEvery: 20 * time.Minute, CrashFor: 10 * time.Minute,
			SensorEvery: 15 * time.Minute, SensorFor: 20 * time.Minute,
			CRACs:   dc.Room().CRACs(),
			Servers: dc.Fleet().Size(),
			Sensors: dc.Room().Zones(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Arm(events); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(horizon); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if in.Injected() == 0 {
			t.Errorf("seed %d: chaos schedule injected nothing", seed)
		}
		if err := env.InvariantErr(); err != nil {
			t.Errorf("seed %d: invariant violated under parallel chaos: %v", seed, err)
		}
		if err := dc.Fleet().VerifyAggregates(); err != nil {
			t.Errorf("seed %d: aggregates diverged under parallel chaos: %v", seed, err)
		}
		env.Close()
	}
}
