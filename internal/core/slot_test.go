package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sim"
)

// slotBits is every reading a standalone server and a fleet slot must
// agree on, floats as bits.
type slotBits struct {
	power, energy, util, capacity uint64
	state                         server.State
	pstate, trips, boots, crashes int
	lastSync                      time.Duration
}

func readBits(s *server.Server) slotBits {
	return slotBits{
		power: math.Float64bits(s.Power()), energy: math.Float64bits(s.EnergyJ()),
		util: math.Float64bits(s.Utilization()), capacity: math.Float64bits(s.AvailableCapacity()),
		state: s.State(), pstate: s.PStateIndex(), trips: s.Trips(), boots: s.Boots(),
		crashes: s.Crashes(), lastSync: s.LastSyncAt(),
	}
}

// TestStandaloneServerMatchesFleetSlot is a metamorphic check of the
// column layout: a standalone server (a one-slot block) and slot k of a
// 2,048-server fleet whose sharded loops run on a 2-worker pool receive
// the same seeded sequence of every mutator at the same times — directly
// through the slot's handle, or through the fleet's column loops
// (Dispatch, Sync, SetPStateAll) mirrored onto the standalone server with
// the utilization the fleet chose. After every step both read the same
// bits, and the fleet's aggregates verify.
func TestStandaloneServerMatchesFleetSlot(t *testing.T) {
	const n, k = 2048, 1337
	cfg := testServerConfig()
	cfg.PowerCurve = server.BigLittleCurve()
	e := sim.NewEngine(1)
	f, err := NewFleet(e, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	f.SetParallel(newTestPool(t, 2))
	if len(f.shards) < 4 {
		t.Fatalf("fleet has %d shards, want at least 4", len(f.shards))
	}
	slot, solo := f.ServerAt(k), server.MustNew(cfg)
	f.SetTarget(n)
	solo.PowerOn(e)

	rng := rand.New(rand.NewSource(17))
	now := time.Duration(0)
	for step := 0; step < 600; step++ {
		now += time.Duration(rng.Intn(45)+1) * time.Second
		if err := e.Run(now); err != nil {
			t.Fatal(err)
		}
		both := func(fn func(s *server.Server)) { fn(slot); fn(solo) }
		op := rng.Intn(12)
		switch op {
		case 0:
			both(func(s *server.Server) { s.PowerOn(e) })
		case 1:
			both(func(s *server.Server) { s.PowerOff(e) })
		case 2:
			u := rng.Float64()*1.4 - 0.2
			both(func(s *server.Server) { s.SetUtilization(now, u) })
		case 3:
			idx := rng.Intn(len(cfg.PStates))
			both(func(s *server.Server) { _ = s.SetPState(now, idx) })
		case 4:
			duty := 0.1 + 0.9*rng.Float64()
			both(func(s *server.Server) { _ = s.SetThrottle(now, duty) })
		case 5:
			parked := rng.Intn(cfg.Cores)
			both(func(s *server.Server) { _ = s.ParkCores(now, parked) })
		case 6:
			both(func(s *server.Server) { s.Crash(now) })
		case 7:
			inlet := cfg.TripTempC - 3 + 4*rng.Float64()
			both(func(s *server.Server) { s.ObserveInlet(now, inlet) })
		case 8:
			both(func(s *server.Server) { s.Sync(now) })
		case 9:
			d, _ := f.Dispatch(now, rng.Float64()*float64(n)*cfg.Capacity)
			solo.SetUtilization(now, d.Utilizations[k])
		case 10:
			f.Sync(now)
			solo.Sync(now)
		case 11:
			idx := rng.Intn(len(cfg.PStates))
			if err := f.SetPStateAll(now, idx); err != nil {
				t.Fatal(err)
			}
			_ = solo.SetPState(now, idx)
		}
		if got, want := readBits(slot), readBits(solo); got != want {
			t.Fatalf("step %d (op %d): fleet slot %+v, standalone %+v", step, op, got, want)
		}
		if err := f.VerifyAggregates(); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
	}
	if s := readBits(solo); s.boots < 3 || s.trips == 0 || s.crashes == 0 {
		t.Fatalf("sequence lost its coverage: %+v", s)
	}
}
