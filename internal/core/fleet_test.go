package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sim"
)

func testServerConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.BootDelay = 90 * time.Second
	return cfg
}

func bootedFleet(t *testing.T, e *sim.Engine, n, on int) *Fleet {
	t.Helper()
	f, err := NewFleet(e, testServerConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	f.SetTarget(on)
	if err := e.Run(e.Now() + testServerConfig().BootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	f.Sync(e.Now())
	if f.ActiveCount() != on {
		t.Fatalf("active = %d after boot, want %d", f.ActiveCount(), on)
	}
	return f
}

func TestNewFleetValidation(t *testing.T) {
	e := sim.NewEngine(1)
	if _, err := NewFleet(e, testServerConfig(), 0); err == nil {
		t.Error("zero fleet should error")
	}
	bad := testServerConfig()
	bad.PeakPower = 0
	if _, err := NewFleet(e, bad, 2); err == nil {
		t.Error("invalid server config should error")
	}
	f, err := NewFleet(e, testServerConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 3 {
		t.Errorf("Size = %d", f.Size())
	}
	names := map[string]bool{}
	for _, s := range f.Servers() {
		names[s.Name()] = true
	}
	if len(names) != 3 {
		t.Error("server names not unique")
	}
}

func TestSetTargetBootAndShutdown(t *testing.T) {
	e := sim.NewEngine(1)
	f := bootedFleet(t, e, 10, 4)
	ons, offs := f.Switches()
	if ons != 4 || offs != 0 {
		t.Errorf("switches = %d/%d, want 4/0", ons, offs)
	}
	// Booting servers count toward the committed target (no double
	// ignition).
	f.SetTarget(6)
	if f.OnCount() != 6 {
		t.Fatalf("OnCount = %d, want 6", f.OnCount())
	}
	f.SetTarget(6) // idempotent while booting
	ons, _ = f.Switches()
	if ons != 6 {
		t.Errorf("switch-ons = %d, want 6 (no re-ignition)", ons)
	}
	if err := e.Run(e.Now() + 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	f.Sync(e.Now())
	if f.ActiveCount() != 6 {
		t.Fatalf("active = %d, want 6", f.ActiveCount())
	}
	// Scale down.
	f.SetTarget(2)
	if err := e.Run(e.Now() + time.Minute); err != nil {
		t.Fatal(err)
	}
	f.Sync(e.Now())
	if f.ActiveCount() != 2 {
		t.Errorf("active after shrink = %d, want 2", f.ActiveCount())
	}
	_, offs = f.Switches()
	if offs != 4 {
		t.Errorf("switch-offs = %d, want 4", offs)
	}
	// Clamping.
	f.SetTarget(-5)
	f.SetTarget(999)
	if f.OnCount() > f.Size() {
		t.Error("target clamping failed")
	}
}

func TestFleetDispatchAndPower(t *testing.T) {
	e := sim.NewEngine(1)
	f := bootedFleet(t, e, 4, 2)
	now := e.Now()
	cfg := testServerConfig()

	// Idle active servers draw idle power each.
	idle := cfg.PeakPower * cfg.IdleFraction
	if math.Abs(f.PowerW()-2*idle) > 1e-9 {
		t.Errorf("idle fleet power = %v, want %v", f.PowerW(), 2*idle)
	}
	// Dispatch half the active capacity: each at 50 %.
	dropped, maxU := f.Dispatch(now, cfg.Capacity)
	if dropped != 0 {
		t.Errorf("dropped = %v", dropped)
	}
	if math.Abs(maxU-0.5) > 1e-9 {
		t.Errorf("max utilization = %v, want 0.5", maxU)
	}
	// Overload drops.
	dropped, maxU = f.Dispatch(now, cfg.Capacity*5)
	if dropped <= 0 || maxU != 1 {
		t.Errorf("overload: dropped=%v maxU=%v", dropped, maxU)
	}
}

func TestFleetActivationOrderIsSliceOrder(t *testing.T) {
	e := sim.NewEngine(1)
	f := bootedFleet(t, e, 5, 2)
	// The first two servers in slice order must be the active ones —
	// the property cooling-aware ordering relies on.
	for i, s := range f.Servers() {
		want := server.StateActive
		if i >= 2 {
			want = server.StateOff
		}
		if s.State() != want {
			t.Errorf("server %d state = %v, want %v", i, s.State(), want)
		}
	}
}

func TestFleetEnergyAccumulates(t *testing.T) {
	e := sim.NewEngine(1)
	f := bootedFleet(t, e, 2, 2)
	before := f.EnergyJ()
	if err := e.Run(e.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	f.Sync(e.Now())
	cfg := testServerConfig()
	wantDelta := 2 * cfg.PeakPower * cfg.IdleFraction * 3600
	delta := f.EnergyJ() - before
	if math.Abs(delta-wantDelta) > 1e-6*wantDelta {
		t.Errorf("hour of idle energy = %v J, want %v J", delta, wantDelta)
	}
}

func TestFleetSetPStateAll(t *testing.T) {
	e := sim.NewEngine(1)
	f := bootedFleet(t, e, 3, 3)
	if err := f.SetPStateAll(e.Now(), 2); err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Servers() {
		if s.PStateIndex() != 2 {
			t.Errorf("server %s p-state = %d, want 2", s.Name(), s.PStateIndex())
		}
	}
	if err := f.SetPStateAll(e.Now(), 99); err == nil {
		t.Error("invalid p-state should error")
	}
}

// TestSetTargetDropDuringBootWindow is the regression for the elastic
// scale-down bug: lowering the target while servers are still booting
// must shed the booting servers too, not wait for a boot that may never
// be reconciled.
func TestSetTargetDropDuringBootWindow(t *testing.T) {
	e := sim.NewEngine(1)
	f, err := NewFleet(e, testServerConfig(), 10)
	if err != nil {
		t.Fatal(err)
	}
	f.SetTarget(8)
	if f.OnCount() != 8 {
		t.Fatalf("OnCount = %d, want 8", f.OnCount())
	}
	// Mid-boot, demand collapses.
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.SetTarget(3)
	if f.OnCount() != 3 {
		t.Fatalf("OnCount immediately after drop = %d, want 3", f.OnCount())
	}
	// After every transition settles, exactly 3 are active — the five
	// aborted boots must not resurrect as Active servers.
	if err := e.Run(e.Now() + testServerConfig().BootDelay + time.Minute); err != nil {
		t.Fatal(err)
	}
	f.Sync(e.Now())
	if f.ActiveCount() != 3 {
		t.Errorf("ActiveCount after settling = %d, want 3", f.ActiveCount())
	}
	if f.OnCount() != 3 {
		t.Errorf("OnCount after settling = %d, want 3", f.OnCount())
	}
	_, offs := f.Switches()
	if offs != 5 {
		t.Errorf("switch-offs = %d, want 5", offs)
	}
}

// TestSetTargetDropToZeroDuringBoot covers the full-collapse case: every
// committed server is still booting when the target reaches zero.
func TestSetTargetDropToZeroDuringBoot(t *testing.T) {
	e := sim.NewEngine(1)
	f, err := NewFleet(e, testServerConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	f.SetTarget(4)
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	f.SetTarget(0)
	if f.OnCount() != 0 {
		t.Fatalf("OnCount = %d, want 0", f.OnCount())
	}
	if err := e.Run(e.Now() + testServerConfig().BootDelay + time.Minute); err != nil {
		t.Fatal(err)
	}
	f.Sync(e.Now())
	for _, s := range f.Servers() {
		if s.State() != server.StateOff {
			t.Errorf("%s state = %v after collapse, want off", s.Name(), s.State())
		}
	}
}

// TestDispatchLiveBound pins the live bound on a half-powered 2,048-server
// fleet whose loops run on a 2-worker pool: a dispatch loads every active
// server with the fill and writes no Off server, and the one way a server
// that is not Off can come to sit past the bound — a boot the fleet did
// not start — resets it, so the next dispatch still loads that server.
// Every round uses a new fill and a new instant, so a server the dispatch
// skipped shows a stale utilization or sync time.
func TestDispatchLiveBound(t *testing.T) {
	const n = 2048
	cfg := testServerConfig()
	e := sim.NewEngine(1)
	f, err := NewFleet(e, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	f.SetParallel(newTestPool(t, 2))
	run := func(d time.Duration) {
		t.Helper()
		if err := e.Run(e.Now() + d); err != nil {
			t.Fatal(err)
		}
	}
	f.SetTarget(n / 2)
	run(cfg.BootDelay + time.Second)

	round := 0
	dispatch := func(what string) float64 {
		t.Helper()
		round++
		run(time.Second)
		now := e.Now()
		synced := make([]time.Duration, n)
		for slot := range synced {
			synced[slot] = f.ServerAt(slot).LastSyncAt()
		}
		_, fill := f.Dispatch(now, (0.2+0.1*float64(round))*float64(f.ActiveCount())*cfg.Capacity)
		if fill <= 0 {
			t.Fatalf("%s: fill %v", what, fill)
		}
		for slot := 0; slot < n; slot++ {
			s := f.ServerAt(slot)
			switch s.State() {
			case server.StateActive:
				if s.Utilization() != fill || s.LastSyncAt() != now {
					t.Fatalf("%s: active slot %d at utilization %v synced at %v, want the fill %v at %v",
						what, slot, s.Utilization(), s.LastSyncAt(), fill, now)
				}
			case server.StateOff:
				if s.LastSyncAt() != synced[slot] {
					t.Fatalf("%s: dispatch wrote Off slot %d (synced %v, was %v)", what, slot, s.LastSyncAt(), synced[slot])
				}
			}
		}
		if err := f.VerifyAggregates(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return fill
	}
	dispatch("half on")
	if live := f.block.LiveEnd(); live != n/2 {
		t.Fatalf("live bound %d with the first %d slots on", live, n/2)
	}

	// A recovery's path: a handle boots the server in the top slot.
	last := f.ServerAt(n - 1)
	last.PowerOn(e)
	run(cfg.BootDelay)
	if fill := dispatch("after a handle boot"); last.Utilization() != fill {
		t.Fatalf("handle-booted server at utilization %v, want the fill %v", last.Utilization(), fill)
	}
	last.PowerOff(e)
	run(cfg.ShutdownDelay)
	dispatch("after its shutdown")
	if live := f.block.LiveEnd(); live != n/2 {
		t.Fatalf("live bound %d after the tail shut down, want %d", live, n/2)
	}

	// A crash opens a hole inside the prefix; the next raise fills it
	// before any position past the bound.
	hole := f.ServerAt(10)
	if !hole.Crash(e.Now()) {
		t.Fatal("crash did not take")
	}
	dispatch("with a hole")
	live := f.block.LiveEnd()
	f.SetTarget(f.OnCount() + 1)
	if got := f.block.LiveEnd(); hole.State() != server.StateBooting || got != live {
		t.Fatalf("raise after a crash: hole %v, live bound %d -> %d", hole.State(), live, got)
	}
	run(cfg.BootDelay)
	dispatch("after the hole rebooted")
}
