package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sim"
)

// scanAggregates recomputes the fleet aggregates the slow way, straight
// from the servers — the reference the maintained counters must match.
func scanAggregates(f *Fleet) (on, active, trips int, powerW, energyJ float64) {
	for _, s := range f.Servers() {
		switch s.State() {
		case server.StateActive:
			on++
			active++
		case server.StateBooting:
			on++
		}
		trips += s.Trips()
		powerW += s.Power()
		energyJ += s.EnergyJ()
	}
	return on, active, trips, powerW, energyJ
}

// withinTol reports |a-b| <= relTol*max(|a|,|b|) + absTol.
func withinTol(a, b, relTol, absTol float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))+absTol
}

func requireAggregatesMatchScan(t *testing.T, f *Fleet) {
	t.Helper()
	on, active, trips, powerW, energyJ := scanAggregates(f)
	if f.OnCount() != on {
		t.Errorf("OnCount = %d, scan = %d", f.OnCount(), on)
	}
	if f.ActiveCount() != active {
		t.Errorf("ActiveCount = %d, scan = %d", f.ActiveCount(), active)
	}
	if f.Trips() != trips {
		t.Errorf("Trips = %d, scan = %d", f.Trips(), trips)
	}
	if !withinTol(f.PowerW(), powerW, 1e-9, 1e-9) {
		t.Errorf("PowerW = %v, scan = %v", f.PowerW(), powerW)
	}
	if !withinTol(f.EnergyJ(), energyJ, 1e-9, 1e-6) {
		t.Errorf("EnergyJ = %v, scan = %v", f.EnergyJ(), energyJ)
	}
	if err := f.VerifyAggregates(); err != nil {
		t.Errorf("VerifyAggregates: %v", err)
	}
}

// TestAggregatesMatchScanAfterFaults drives the fleet through the ugly
// lifecycle corners — aborted boots, crashes, thermal trips, re-boots —
// and checks the maintained counters against a fresh scan at every stage.
func TestAggregatesMatchScanAfterFaults(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testServerConfig()
	f, err := NewFleet(e, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireAggregatesMatchScan(t, f)

	// Boot six; abort two of them mid-boot.
	f.SetTarget(6)
	requireAggregatesMatchScan(t, f)
	if err := e.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.SetTarget(4) // sheds booting servers: Booting→ShuttingDown aborts
	requireAggregatesMatchScan(t, f)
	if err := e.Run(cfg.BootDelay + time.Minute); err != nil {
		t.Fatal(err)
	}
	if f.ActiveCount() != 4 {
		t.Fatalf("ActiveCount = %d after aborted boots, want 4", f.ActiveCount())
	}
	requireAggregatesMatchScan(t, f)

	// Put load on, then crash one server and trip another.
	f.Dispatch(e.Now(), 2000)
	requireAggregatesMatchScan(t, f)
	servers := f.Servers()
	if !servers[0].Crash(e.Now()) {
		t.Fatal("crash did not take")
	}
	if !servers[1].ObserveInlet(e.Now(), cfg.TripTempC+2) {
		t.Fatal("trip did not take")
	}
	requireAggregatesMatchScan(t, f)
	if f.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1", f.Trips())
	}

	// Recover: boot back up, complete, and re-dispatch.
	f.SetTarget(6)
	requireAggregatesMatchScan(t, f)
	if err := e.Run(e.Now() + cfg.BootDelay + time.Minute); err != nil {
		t.Fatal(err)
	}
	f.Dispatch(e.Now(), 3000)
	f.Sync(e.Now())
	requireAggregatesMatchScan(t, f)
}

// aggregateTrajectory runs a seeded random op sequence (boots, sheds,
// DVFS moves, throttles, core parking, crashes, trips, dispatches) over a
// fleet of size n, verifying SoA aggregates against a scan as it goes,
// and returns the observable aggregate trajectory for determinism checks.
func aggregateTrajectory(t *testing.T, seed int64, n, steps int) []float64 {
	t.Helper()
	e := sim.NewEngine(1)
	cfg := testServerConfig()
	f, err := NewFleet(e, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic rack/zone grouping so per-group sums are exercised too.
	rackOf := make([]int, n)
	zoneOf := make([]int, n)
	nRacks := (n + 3) / 4
	for i := range rackOf {
		rackOf[i] = i / 4
		zoneOf[i] = i % 3
	}
	if err := f.SetPowerGroups(rackOf, zoneOf, nRacks, 3); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	var traj []float64
	now := time.Duration(0)
	for step := 0; step < steps; step++ {
		now += time.Duration(rng.Intn(30)+1) * time.Second
		if err := e.Run(now); err != nil {
			t.Fatal(err)
		}
		s := f.Servers()[rng.Intn(n)]
		switch rng.Intn(10) {
		case 0:
			s.PowerOn(e)
		case 1:
			s.PowerOff(e)
		case 2:
			s.SetUtilization(e.Now(), rng.Float64()*1.2-0.1) // incl. clamped values
		case 3:
			if err := s.SetPState(e.Now(), rng.Intn(len(cfg.PStates))); err != nil {
				t.Fatal(err)
			}
		case 4:
			if err := s.SetThrottle(e.Now(), 0.2+0.8*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		case 5:
			if err := s.ParkCores(e.Now(), rng.Intn(cfg.Cores)); err != nil {
				t.Fatal(err)
			}
		case 6:
			s.Crash(e.Now())
		case 7:
			// Sometimes above the trip threshold, sometimes below.
			s.ObserveInlet(e.Now(), cfg.TripTempC-5+rng.Float64()*10)
		case 8:
			f.SetTarget(rng.Intn(n + 1))
		case 9:
			f.Dispatch(e.Now(), rng.Float64()*cfg.Capacity*float64(n))
		}
		if step%7 == 0 {
			requireAggregatesMatchScan(t, f)
		}
		if step%11 == 0 {
			f.MaybeRebase()
		}
		traj = append(traj, f.PowerW(), f.EnergyJ(),
			float64(f.OnCount()), float64(f.ActiveCount()), float64(f.Trips()))
	}
	f.Sync(e.Now())
	requireAggregatesMatchScan(t, f)
	traj = append(traj, f.PowerW(), f.EnergyJ())
	return traj
}

// TestRebaseRecordsDrift pins the drift-visibility fix: the non-negative
// clamps on PowerW/RackPowerW/ZonePowerW floor ulp-scale drift, but the
// magnitude discarded at each Rebase must be recorded, and drift beyond
// the rebase-window tolerance must fail VerifyAggregates instead of
// vanishing into the clamp.
func TestRebaseRecordsDrift(t *testing.T) {
	e := sim.NewEngine(1)
	f := bootedFleet(t, e, 8, 6)

	f.Rebase()
	last, max := f.RebaseDrift()
	if last > 1e-9 {
		t.Fatalf("healthy fleet recorded %v W of rebase drift", last)
	}
	if err := f.VerifyAggregates(); err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}

	// Inject drift well past what a rebase window can accumulate —
	// the shape of a lost column-write delta.
	f.block.Sums().PowerW += 3.5
	f.Rebase()
	last, max = f.RebaseDrift()
	if last < 3.4 || last > 3.6 {
		t.Fatalf("recorded drift = %v W, want ~3.5", last)
	}
	if max < last {
		t.Fatalf("max drift %v below last %v", max, last)
	}
	if err := f.VerifyAggregates(); err == nil {
		t.Fatal("VerifyAggregates passed despite out-of-tolerance rebase drift")
	}

	// A clean rebase clears the fresh-drift failure but keeps the
	// lifetime high-water mark.
	f.Rebase()
	if err := f.VerifyAggregates(); err != nil {
		t.Fatalf("after clean rebase: %v", err)
	}
	if _, max = f.RebaseDrift(); max < 3.4 {
		t.Fatalf("lifetime max drift = %v, want ~3.5 retained", max)
	}
}

// TestRebaseDriftCoversGroups injects drift into a per-zone sum only and
// checks it is still seen (the clamped ZonePowerW accessor would have
// masked a negative version of it entirely).
func TestRebaseDriftCoversGroups(t *testing.T) {
	e := sim.NewEngine(1)
	f := bootedFleet(t, e, 8, 8)
	rackOf := make([]int, 8)
	zoneOf := make([]int, 8)
	for i := range rackOf {
		rackOf[i] = i / 4
		zoneOf[i] = i / 4
	}
	if err := f.SetPowerGroups(rackOf, zoneOf, 2, 2); err != nil {
		t.Fatal(err)
	}
	if last, _ := f.RebaseDrift(); last != 0 {
		t.Fatalf("SetPowerGroups installation measured as drift: %v W", last)
	}
	f.block.Sums().Zone[1] -= 2.0 // negative drift: exactly what the clamp hides
	f.Rebase()
	if last, _ := f.RebaseDrift(); last < 1.9 || last > 2.1 {
		t.Fatalf("zone drift recorded as %v W, want ~2", last)
	}
	if err := f.VerifyAggregates(); err == nil {
		t.Fatal("VerifyAggregates passed despite zone-sum drift")
	}
}

// TestVerifyAggregatesAllocationFree pins the armed check's cost: the
// invariant checker runs VerifyAggregates at every full fleet sweep, so
// its rack and zone recompute uses fleet-owned scratch instead of
// allocating.
func TestVerifyAggregatesAllocationFree(t *testing.T) {
	e := sim.NewEngine(1)
	f := bootedFleet(t, e, 12, 7)
	rackOf := make([]int, 12)
	zoneOf := make([]int, 12)
	for i := range rackOf {
		rackOf[i] = i / 4
		zoneOf[i] = i % 2
	}
	if err := f.SetPowerGroups(rackOf, zoneOf, 3, 2); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(100, func() { err = f.VerifyAggregates() })
	if err != nil {
		t.Fatalf("VerifyAggregates: %v", err)
	}
	if allocs != 0 {
		t.Errorf("VerifyAggregates allocates %v times per call on a grouped fleet, want 0", allocs)
	}
}

// TestAggregatesPropertyRandom asserts, across fleet sizes and seeds,
// that the incrementally maintained aggregates track a full recompute
// through arbitrary op interleavings, and that the whole observable
// trajectory is bitwise deterministic across two same-seed runs.
func TestAggregatesPropertyRandom(t *testing.T) {
	for _, n := range []int{1, 7, 32, 129} {
		for seed := int64(1); seed <= 3; seed++ {
			a := aggregateTrajectory(t, seed, n, 150)
			b := aggregateTrajectory(t, seed, n, 150)
			if len(a) != len(b) {
				t.Fatalf("n=%d seed=%d: trajectory lengths differ: %d vs %d", n, seed, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d seed=%d: trajectories diverge at %d: %v vs %v", n, seed, i, a[i], b[i])
				}
			}
		}
	}
}
