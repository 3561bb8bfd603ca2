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
// (Dispatch, Sync, SetPStateAll, SetTarget) mirrored onto the standalone
// server. After every step both read the same bits, and the fleet's
// aggregates verify.
//
// A dispatch is mirrored by its rule: a server that is not Off gets the
// fill if it had capacity, else 0, and an Off server is not written. A
// fleet Sync follows the same rule: the standalone server syncs only if
// it is not Off, so lastSync, compared like every other field, pins that
// the fleet left an Off slot's sync time where it was. In
// the all-on schedule every position is powered. In the off-tail
// schedule the fleet powers only the positions before k, so slot k sits
// at the head of the Off tail until its handle boots it (a boot the
// fleet did not start), and the fleet's retargets below k shed it first
// whenever it is committed.
func TestStandaloneServerMatchesFleetSlot(t *testing.T) {
	const n, k = 2048, 1337
	for _, sched := range []struct {
		name     string
		target   int  // the fleet's first SetTarget
		retarget bool // add op 12: SetTarget somewhere in [k/2, k]
	}{
		{"all-on", n, false},
		{"off-tail", k, true},
	} {
		t.Run(sched.name, func(t *testing.T) {
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
			f.SetTarget(sched.target)
			if sched.target > k {
				solo.PowerOn(e)
			}
			ops := 12
			if sched.retarget {
				ops = 13
			}

			rng := rand.New(rand.NewSource(17))
			now := time.Duration(0)
			tailDispatches, offSyncs := 0, 0
			for step := 0; step < 600; step++ {
				now += time.Duration(rng.Intn(45)+1) * time.Second
				if err := e.Run(now); err != nil {
					t.Fatal(err)
				}
				both := func(fn func(s *server.Server)) { fn(slot); fn(solo) }
				op := rng.Intn(ops)
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
					_, maxU := f.Dispatch(now, rng.Float64()*float64(n)*cfg.Capacity)
					if solo.State() != server.StateOff {
						var u float64
						if solo.AvailableCapacity() > 0 {
							u = maxU // the fill, whenever some server has capacity
						}
						solo.SetUtilization(now, u)
					} else if f.live <= k {
						tailDispatches++
					}
				case 10:
					off := solo.State() == server.StateOff
					f.Sync(now)
					if !off {
						solo.Sync(now)
					} else {
						offSyncs++
					}
				case 11:
					idx := rng.Intn(len(cfg.PStates))
					if err := f.SetPStateAll(now, idx); err != nil {
						t.Fatal(err)
					}
					_ = solo.SetPState(now, idx)
				case 12:
					// Every position after k is Off, so a shed visits slot k
					// first, and a raise to at most k never reaches it.
					target := k/2 + rng.Intn(k/2+1)
					if st := solo.State(); (st == server.StateActive || st == server.StateBooting) && f.OnCount() > target {
						solo.PowerOff(e)
					}
					f.SetTarget(target)
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
			if sched.retarget && tailDispatches == 0 {
				t.Fatal("no dispatch found slot k in the Off tail")
			}
			if offSyncs == 0 {
				t.Fatal("no Sync found slot k Off")
			}
		})
	}
}
