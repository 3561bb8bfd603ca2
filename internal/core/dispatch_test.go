package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sim"
)

// TestDispatchGroupSumsExact pins the dispatch write to the fold it
// replaces, bit for bit, on four fleets: an ungrouped one, the shape of
// a geo site's; the same fleet with racks and zones; the grouped fleet
// tracking changes; and a tracking fleet whose racks interleave. Each
// has 4,096 servers on a 2-worker pool. The contiguous layouts have
// 37-server racks, which straddle their shard boundaries, and a zone
// that changes at every rack; the interleaved one puts slot s in rack s
// mod racks, so consecutive slots sit in different racks and each rack
// recurs along a shard. Handles keep
// booting, shutting-down, throttled and parked slots in the mix, on the
// concave BigLittle power curve, and every dispatch runs at the instant
// some boots and shutdowns fall due, before their completion events, so
// the dispatch completes them.
//
// After every dispatch, each server that was not Off is synced to the
// dispatch instant at the fill if it is active and had capacity before
// the write, else at 0, and each Off server is unwritten. The sums are
// held to the per-slot fold: per shard, per slot in slot order, each
// changed slot's deltas added into a zeroed partial, the partials merged
// into the sums in shard order (group sums only where nonzero). The
// total power and energy, the on and active counts and every rack and
// zone sum must equal that fold exactly, and the change set, emptied
// before the dispatch, must hold the fold's changed slots in its order:
// shard order, then slot order within a shard.
func TestDispatchGroupSumsExact(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		grouped, interleaved, tracked bool
	}{
		{"flat", false, false, false},
		{"grouped", true, false, false},
		{"tracked", true, false, true},
		{"interleaved", true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) { testDispatchSumsExact(t, tc.grouped, tc.interleaved, tc.tracked) })
	}
}

func testDispatchSumsExact(t *testing.T, grouped, interleaved, tracked bool) {
	const n, perRack, zones = 4096, 37, 3
	cfg := testServerConfig()
	cfg.PowerCurve = server.BigLittleCurve()
	e := sim.NewEngine(1)
	f, err := NewFleet(e, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	f.SetParallel(newTestPool(t, 2))
	racks := (n + perRack - 1) / perRack
	rackOf, zoneOf := make([]int, n), make([]int, n)
	for slot := range rackOf {
		rackOf[slot] = slot / perRack
		if interleaved {
			rackOf[slot] = slot % racks
		}
		zoneOf[slot] = rackOf[slot] % zones
	}
	if grouped {
		if err := f.SetPowerGroups(rackOf, zoneOf, racks, zones); err != nil {
			t.Fatal(err)
		}
	}
	if tracked {
		f.TrackChanges()
	}
	straddles := 0
	for _, sh := range f.shards[1:] {
		if sh.Lo%perRack != 0 {
			straddles++
		}
	}
	if len(f.shards) < 4 || straddles == 0 {
		t.Fatalf("%d shards, %d starting inside a rack; want at least 4 and 1", len(f.shards), straddles)
	}

	committedIn := func(st server.State) int {
		if st == server.StateActive || st == server.StateBooting {
			return 1
		}
		return 0
	}
	activeIn := func(st server.State) int {
		if st == server.StateActive {
			return 1
		}
		return 0
	}
	type reading struct {
		st          server.State
		p, e, avail float64
		at          time.Duration
	}
	before := make([]reading, n)
	partRack, partZone := make([]float64, racks), make([]float64, zones)
	var changes []int32
	// seen counts, over every dispatch, the slots in each mixed state the
	// write met: booting, shutting down, and active with a throttle or
	// parked cores.
	var seen struct{ booting, shutting, throttled, parked, completed int }
	throttled, parked := make([]bool, n), make([]bool, n)

	dispatch := func(round int, now time.Duration, offered float64) {
		t.Helper()
		// Stop short of now, so the completion events due at now have
		// not run and the dispatch completes those transitions itself.
		if err := e.Run(now - 1); err != nil {
			t.Fatal(err)
		}
		for slot := range before {
			s := f.ServerAt(slot)
			before[slot] = reading{s.State(), s.Power(), s.EnergyJ(), s.AvailableCapacity(), s.LastSyncAt()}
			switch {
			case s.State() == server.StateBooting:
				seen.booting++
			case s.State() == server.StateShuttingDown:
				seen.shutting++
			case s.State() == server.StateActive && throttled[slot]:
				seen.throttled++
			case s.State() == server.StateActive && parked[slot]:
				seen.parked++
			}
		}
		sums := f.block.Sums()
		ref := struct {
			powerW, energyJ float64
			on, active      int
			rack, zone      []float64
		}{sums.PowerW, sums.EnergyJ, sums.On, sums.Active,
			append([]float64(nil), sums.Rack...), append([]float64(nil), sums.Zone...)}
		changes = changes[:0]

		f.ResetChanged()
		_, fill := f.Dispatch(now, offered)

		for slot, b := range before {
			s := f.ServerAt(slot)
			want, at := 0.0, now
			switch {
			case b.st == server.StateOff:
				at = b.at
			case s.State() == server.StateActive && b.avail > 0:
				want = fill
			}
			if s.Utilization() != want || s.LastSyncAt() != at {
				t.Fatalf("round %d: %v slot %d (was %v with capacity %v) at utilization %v synced at %v, want %v at %v",
					round, s.State(), slot, b.st, b.avail, s.Utilization(), s.LastSyncAt(), want, at)
			}
		}
		for _, sh := range f.shards {
			var pw, en float64
			var on, active int
			dirty := false
			for slot := sh.Lo; slot < sh.Hi; slot++ {
				srv := f.ServerAt(slot)
				b, st := before[slot], srv.State()
				if st == b.st && srv.Power() == b.p && srv.EnergyJ() == b.e {
					continue
				}
				if st != b.st {
					seen.completed++
				}
				changes = append(changes, int32(slot))
				d := srv.Power() - b.p
				pw += d
				en += srv.EnergyJ() - b.e
				on += committedIn(st) - committedIn(b.st)
				active += activeIn(st) - activeIn(b.st)
				if grouped && d != 0 {
					partRack[rackOf[slot]] += d
					partZone[zoneOf[slot]] += d
					dirty = true
				}
			}
			ref.powerW += pw
			ref.energyJ += en
			ref.on += on
			ref.active += active
			if dirty {
				for g, d := range partRack {
					if d != 0 {
						ref.rack[g] += d
					}
				}
				for g, d := range partZone {
					if d != 0 {
						ref.zone[g] += d
					}
				}
			}
			clear(partRack)
			clear(partZone)
		}

		if math.Float64bits(sums.PowerW) != math.Float64bits(ref.powerW) ||
			math.Float64bits(sums.EnergyJ) != math.Float64bits(ref.energyJ) {
			t.Fatalf("round %d: power %v W, energy %v J; per-slot fold %v W, %v J",
				round, sums.PowerW, sums.EnergyJ, ref.powerW, ref.energyJ)
		}
		if sums.On != ref.on || sums.Active != ref.active {
			t.Fatalf("round %d: on %d, active %d; per-slot fold %d, %d", round, sums.On, sums.Active, ref.on, ref.active)
		}
		for r := range ref.rack {
			if math.Float64bits(sums.Rack[r]) != math.Float64bits(ref.rack[r]) {
				t.Fatalf("round %d: rack %d at %v W, per-slot fold %v W", round, r, sums.Rack[r], ref.rack[r])
			}
		}
		for z := range ref.zone {
			if math.Float64bits(sums.Zone[z]) != math.Float64bits(ref.zone[z]) {
				t.Fatalf("round %d: zone %d at %v W, per-slot fold %v W", round, z, sums.Zone[z], ref.zone[z])
			}
		}
		if got := f.Changed(); tracked && !slices.Equal(got, changes) || !tracked && len(got) != 0 {
			t.Fatalf("round %d: change set of %d slots, per-slot fold %d (tracked: %v); first difference at %d",
				round, len(got), len(changes), tracked, firstDiff(got, changes))
		}
		if err := e.Run(now); err != nil {
			t.Fatal(err)
		}
		if err := f.VerifyAggregates(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	// Dispatches every 10 s; boots (90 s) and shutdowns (20 s) started at
	// a dispatch instant fall due at a later one.
	rng := rand.New(rand.NewSource(29))
	f.SetTarget(3 * n / 4)
	for round := 1; round <= 60; round++ {
		now := time.Duration(round) * 10 * time.Second
		dispatch(round, now, (0.2+0.9*rng.Float64())*float64(f.OnCount())*cfg.Capacity)
		if round%7 == 0 {
			f.SetTarget(n/2 + rng.Intn(n/2))
		}
		for i := 0; i < 40; i++ {
			slot := rng.Intn(n)
			s := f.ServerAt(slot)
			switch rng.Intn(6) {
			case 0:
				_ = s.SetThrottle(now, 0.2+0.8*rng.Float64())
				throttled[slot] = true
			case 1:
				_ = s.ParkCores(now, 1+rng.Intn(cfg.Cores-1))
				parked[slot] = true
			case 2:
				_ = s.SetPState(now, rng.Intn(len(cfg.PStates)))
			case 3:
				s.PowerOff(e)
			case 4:
				s.PowerOn(e)
			case 5:
				s.Crash(now)
			}
		}
	}
	if seen.booting == 0 || seen.shutting == 0 || seen.throttled == 0 || seen.parked == 0 || seen.completed == 0 {
		t.Fatalf("the schedule lost its coverage: %+v", seen)
	}
}

// TestSyncLiveBound pins Sync's live bound on a 2,048-server fleet whose
// loops run on a 2-worker pool. After a shed, with a crash hole inside
// the powered prefix and a server that a handle booted past the bound, a
// Sync writes every server that is not Off and leaves every Off server's
// LastSyncAt. It syncs the handle-booted server, completes the shed
// shutdowns that fall due at its instant, and syncs the hole once a
// raise has refilled it; the aggregates verify after each Sync.
func TestSyncLiveBound(t *testing.T) {
	const n = 2048
	cfg := testServerConfig()
	e := sim.NewEngine(1)
	f, err := NewFleet(e, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	f.SetParallel(newTestPool(t, 2))
	run := func(to time.Duration) {
		t.Helper()
		if err := e.Run(to); err != nil {
			t.Fatal(err)
		}
	}
	synced := make([]time.Duration, n)
	wasOff := make([]bool, n)
	sync := func(what string, now time.Duration) {
		t.Helper()
		for slot := range synced {
			s := f.ServerAt(slot)
			synced[slot], wasOff[slot] = s.LastSyncAt(), s.State() == server.StateOff
		}
		f.Sync(now)
		for slot := 0; slot < n; slot++ {
			s := f.ServerAt(slot)
			if want := now; wasOff[slot] && s.LastSyncAt() != synced[slot] || !wasOff[slot] && s.LastSyncAt() != want {
				t.Fatalf("%s: slot %d (Off before: %v) synced at %v, was %v, now %v",
					what, slot, wasOff[slot], s.LastSyncAt(), synced[slot], now)
			}
		}
		if err := f.VerifyAggregates(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireAggregatesMatchScan(t, f)
	}

	f.SetTarget(3 * n / 4)
	run(cfg.BootDelay + time.Second)
	now := e.Now()
	f.SetTarget(n / 2)
	// Sync at the instant the shed's shutdowns fall due, before their
	// completion events: the Sync completes them.
	due := now + cfg.ShutdownDelay
	run(due - 1)
	sync("at the shed's deadline", due)
	if f.OnCount() != n/2 || f.ServerAt(n/2).State() != server.StateOff {
		t.Fatalf("the Sync at the deadline left %d on, want %d, and the first shed server %v",
			f.OnCount(), n/2, f.ServerAt(n/2).State())
	}
	if live := f.block.LiveEnd(); live != n/2 {
		t.Fatalf("live bound %d after the shed, want %d", live, n/2)
	}
	run(due)

	hole := f.ServerAt(10)
	if !hole.Crash(e.Now()) {
		t.Fatal("crash did not take")
	}
	last := f.ServerAt(n - 1)
	last.PowerOn(e)
	holeSync := hole.LastSyncAt()
	run(e.Now() + time.Minute)
	sync("with a hole and a handle boot", e.Now())
	if hole.LastSyncAt() != holeSync || last.LastSyncAt() != e.Now() {
		t.Fatalf("hole synced at %v (crashed at %v), handle-booted server at %v (now %v)",
			hole.LastSyncAt(), holeSync, last.LastSyncAt(), e.Now())
	}

	f.SetTarget(f.OnCount() + 1)
	if hole.State() != server.StateBooting {
		t.Fatalf("raise after a crash left the hole %v", hole.State())
	}
	run(e.Now() + time.Minute)
	sync("after the raise refilled the hole", e.Now())
	if hole.LastSyncAt() != e.Now() {
		t.Fatalf("refilled hole synced at %v, want %v", hole.LastSyncAt(), e.Now())
	}
}

// firstDiff returns the first index at which a and b differ, or the
// shorter length if one is a prefix of the other.
func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSyncMatchesServerSync pins Fleet.Sync to the handle's sync, bit
// for bit, on an ungrouped and a grouped 2,048-server fleet, each
// tracking changes on a 2-worker pool. A copy of the fleet takes the
// same boots, shed, throttles, P-state moves, crash and handle boot,
// and instead of each Fleet.Sync it syncs its servers one at a time
// through Server.Sync in slot order, skipping the Off ones. The
// fleets hold a crash hole inside the powered prefix and a server that
// a handle booted past the live bound, and handle writes leave the
// servers at different last sync times. One Sync falls at the instant
// the shed's shutdowns fall due, before their completion events, and
// one where the handle-booted server's boot does. After every Sync,
// each server's energy, last sync time and state, the on and active
// counts and the change set, emptied before the Sync, must match the
// copy's exactly, the change sets in the same order.
func TestSyncMatchesServerSync(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		name := "flat"
		if grouped {
			name = "grouped"
		}
		t.Run(name, func(t *testing.T) { testSyncMatchesServerSync(t, grouped) })
	}
}

func testSyncMatchesServerSync(t *testing.T, grouped bool) {
	const n = 2048
	cfg := testServerConfig()
	type side struct {
		e *sim.Engine
		f *Fleet
	}
	build := func() side {
		e := sim.NewEngine(1)
		f, err := NewFleet(e, cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		f.SetParallel(newTestPool(t, 2))
		if grouped {
			rackOf, zoneOf := make([]int, n), make([]int, n)
			for slot := range rackOf {
				rackOf[slot], zoneOf[slot] = slot/40, slot/40%4
			}
			if err := f.SetPowerGroups(rackOf, zoneOf, (n+39)/40, 4); err != nil {
				t.Fatal(err)
			}
		}
		f.TrackChanges()
		return side{e, f}
	}
	fleet, copied := build(), build()
	both := func(do func(e *sim.Engine, f *Fleet)) {
		t.Helper()
		do(fleet.e, fleet.f)
		do(copied.e, copied.f)
	}
	run := func(to time.Duration) {
		t.Helper()
		both(func(e *sim.Engine, _ *Fleet) {
			if err := e.Run(to); err != nil {
				t.Fatal(err)
			}
		})
	}
	syncs := 0
	sync := func(what string, now time.Duration) {
		t.Helper()
		f, g := fleet.f, copied.f
		f.ResetChanged()
		g.ResetChanged()
		f.Sync(now)
		for _, s := range g.Servers() {
			if s.State() != server.StateOff {
				s.Sync(now)
			}
		}
		syncs++
		for slot := 0; slot < n; slot++ {
			a, b := f.ServerAt(slot), g.ServerAt(slot)
			if math.Float64bits(a.EnergyJ()) != math.Float64bits(b.EnergyJ()) || a.LastSyncAt() != b.LastSyncAt() || a.State() != b.State() {
				t.Fatalf("%s: slot %d %v with %v J synced at %v; server syncs %v with %v J at %v",
					what, slot, a.State(), a.EnergyJ(), a.LastSyncAt(), b.State(), b.EnergyJ(), b.LastSyncAt())
			}
		}
		if f.OnCount() != g.OnCount() || f.ActiveCount() != g.ActiveCount() {
			t.Fatalf("%s: on %d, active %d; server syncs %d, %d", what, f.OnCount(), f.ActiveCount(), g.OnCount(), g.ActiveCount())
		}
		if got, want := f.Changed(), g.Changed(); len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s: change set of %d slots, server syncs %d; first difference at %d",
				what, len(got), len(want), firstDiff(got, want))
		}
		if err := f.VerifyAggregates(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	both(func(_ *sim.Engine, f *Fleet) { f.SetTarget(3 * n / 4) })
	run(cfg.BootDelay + time.Second)
	sync("after the boots", cfg.BootDelay+time.Second)
	// Handle writes spread the last sync times: every 7th server changes
	// throttle a second later, every 11th P-state two.
	now := cfg.BootDelay + 2*time.Second
	run(now)
	both(func(_ *sim.Engine, f *Fleet) {
		for i := 0; i < 3*n/4; i += 7 {
			if err := f.ServerAt(i).SetThrottle(now, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3*n/4; i += 11 {
			if err := f.ServerAt(i).SetPState(now+time.Second, 2); err != nil {
				t.Fatal(err)
			}
		}
	})
	run(now + 30*time.Second)
	sync("after the handle writes", now+30*time.Second)

	both(func(_ *sim.Engine, f *Fleet) { f.SetTarget(n / 2) })
	due := fleet.e.Now() + cfg.ShutdownDelay
	run(due - 1)
	sync("at the shed's deadline", due)
	run(due)

	var booted time.Duration
	both(func(e *sim.Engine, f *Fleet) {
		if !f.ServerAt(10).Crash(e.Now()) {
			t.Fatal("crash did not take")
		}
		f.ServerAt(n - 1).PowerOn(e)
		booted = e.Now()
	})
	run(booted + time.Minute)
	sync("with a hole and a handle boot", booted+time.Minute)
	run(booted + cfg.BootDelay - 1)
	sync("at the handle boot's deadline", booted+cfg.BootDelay)
	if s := fleet.f.ServerAt(n - 1); s.State() != server.StateActive {
		t.Fatalf("the Sync at its deadline left the handle-booted server %v", s.State())
	}
	if syncs != 5 {
		t.Fatalf("%d syncs, want 5", syncs)
	}
}
