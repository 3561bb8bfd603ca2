package core

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
)

// degraderFixture assembles the small test facility with every server
// active and dispatched hot, plus a degrader subscribed to an injector.
func degraderFixture(t *testing.T, genFailProb float64) (*sim.Engine, *DataCenter, *Degrader, *fault.Injector, *fault.Utility) {
	t.Helper()
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, smallDCConfig())
	if err != nil {
		t.Fatal(err)
	}
	dc.Fleet().SetTarget(dc.Fleet().Size())
	if err := e.Run(testServerConfig().BootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	dc.Fleet().Dispatch(e.Now(), 0.9*float64(dc.Fleet().Size())*testServerConfig().Capacity)

	// EmergencyCapFrac 0.4 puts the derated cap (800 W) below the
	// facility's 90 %-dispatch rack draw, so enforcement must bite.
	d, err := NewDegrader(e, dc, DegraderConfig{EmergencyCapFrac: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(e)
	in.WireRoom(dc.Room())
	in.WireServers(dc.Fleet().Servers())
	bat, err := power.BatteryForAutonomy(dc.ITPowerW(), 5*time.Minute, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	u, err := in.WireUtility(fault.UtilityConfig{
		Battery:          bat,
		LoadW:            func() float64 { return dc.Flow().OutW },
		GenStartDelay:    time.Minute,
		GenStartFailProb: genFailProb,
		GenRetries:       1,
		GenRetryBackoff:  30 * time.Second,
		Tick:             5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Subscribe(d.OnNotice)
	d.Start()
	return e, dc, d, in, u
}

func TestDegraderEmergencyCaps(t *testing.T) {
	e, dc, d, in, _ := degraderFixture(t, 0)
	racks := dc.Topology().Racks
	savedCap := racks[0].Cap()
	outageAt := e.Now() + time.Hour
	if err := in.Arm([]fault.Event{
		{Kind: fault.UtilityOutage, At: outageAt, Duration: 30 * time.Minute},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(outageAt + 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	wantCap := racks[0].RatedW() * 0.4
	if got := racks[0].Cap(); got != wantCap {
		t.Fatalf("mid-outage rack cap %v, want derated %v", got, wantCap)
	}
	if d.CapEvents() != 1 {
		t.Fatalf("cap events %d, want 1", d.CapEvents())
	}
	// The 90 %-dispatched racks exceed the derated cap, so enforcement
	// must have throttled them under it.
	if d.Enforcer().ThrottleEvents() == 0 {
		t.Fatal("expected throttling against the emergency cap")
	}
	// The throttle/relax loop oscillates in a narrow band around the
	// cap (relax overshoots by up to 15 % before the next pass bites),
	// so allow that band rather than an instant-exact bound.
	if flow := racks[0].Evaluate(); flow.OutW > wantCap*1.15 {
		t.Fatalf("rack draw %v not pulled toward emergency cap %v", flow.OutW, wantCap)
	}
	if err := e.Run(outageAt + 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := racks[0].Cap(); got != savedCap {
		t.Fatalf("post-outage rack cap %v, want restored %v", got, savedCap)
	}
	for i, s := range dc.Fleet().Servers() {
		if s.State() != server.StateActive {
			continue
		}
		cfg := s.Config()
		nominal := cfg.Capacity * cfg.PStates[s.PStateIndex()].Freq
		if s.AvailableCapacity() < nominal*0.999 {
			t.Fatalf("server %d still throttled after cap release", i)
		}
	}
}

func TestDegraderSurvivalShedOnDepletion(t *testing.T) {
	e, dc, d, in, u := degraderFixture(t, 1) // generator never starts
	outageAt := e.Now() + time.Hour
	if err := in.Arm([]fault.Event{
		{Kind: fault.UtilityOutage, At: outageAt, Duration: time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(outageAt + 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if u.UnservedJ() <= 0 {
		t.Fatal("five-minute store must deplete in a one-hour outage with no generator")
	}
	if d.SurvivalSheds() != 1 {
		t.Fatalf("survival sheds %d, want 1", d.SurvivalSheds())
	}
	// 10 % survival fraction of 8 servers = 1 committed server.
	if on := dc.Fleet().OnCount(); on != 1 {
		t.Fatalf("post-depletion committed count %d, want 1", on)
	}
	if d.ShedServers() == 0 {
		t.Fatal("shed servers not counted")
	}
}

func TestDegraderThermalLadder(t *testing.T) {
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, smallDCConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Attach only the room physics — no server↔room coupling, so the
	// ladder (not thermal trips) is the only actor.
	dc.Room().Attach(e)
	dc.Fleet().SetTarget(dc.Fleet().Size())
	if err := e.Run(testServerConfig().BootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	dc.Fleet().Dispatch(e.Now(), 0.8*float64(dc.Fleet().Size())*testServerConfig().Capacity)
	d, err := NewDegrader(e, dc, DegraderConfig{CheckPeriod: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()

	// Fail the (only) CRAC under heavy heat: the room ramps and the
	// ladder must walk DVFS-down → consolidate → zone shed.
	if err := dc.Room().SetUnitFailed(0, true); err != nil {
		t.Fatal(err)
	}
	if err := dc.Room().SetZoneHeat(0, 30_000); err != nil {
		t.Fatal(err)
	}
	if err := dc.Room().SetZoneHeat(1, 25_000); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(e.Now() + 3*time.Hour); err != nil {
		t.Fatal(err)
	}
	if d.LadderStage() != 3 {
		t.Fatalf("ladder stage %d under sustained overheat, want 3", d.LadderStage())
	}
	if d.DVFSDowns() != 1 || d.Consolidations() != 1 || d.ZoneSheds() != 1 {
		t.Fatalf("ladder actions dvfs=%d consolidate=%d zone=%d, want 1 each",
			d.DVFSDowns(), d.Consolidations(), d.ZoneSheds())
	}
	if d.ShedServers() == 0 {
		t.Fatal("ladder shed no servers")
	}
	// Zone 0 leans hardest on the failed CRAC (sensitivity 0.85 vs
	// 0.80): its servers must be the ones powered off by stage 3, and
	// the zone-1 servers consolidation left on must stay on.
	kept := 0
	for i, s := range dc.Fleet().Servers() {
		switch active := s.State() == server.StateActive; {
		case dc.ZoneOfServer(i) == 0 && active:
			t.Fatalf("zone-0 server %d still active after zone shed", i)
		case active:
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("the zone shed powered off zone 1 too")
	}

	// Repair and cool: the ladder must release and restore the fast
	// DVFS point.
	if err := dc.Room().SetUnitFailed(0, false); err != nil {
		t.Fatal(err)
	}
	for z := 0; z < dc.Room().Zones(); z++ {
		if err := dc.Room().SetZoneHeat(z, 100); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(e.Now() + 6*time.Hour); err != nil {
		t.Fatal(err)
	}
	if d.LadderStage() != 0 {
		t.Fatalf("ladder stage %d after recovery, want 0", d.LadderStage())
	}
	for i, s := range dc.Fleet().Servers() {
		if s.State() == server.StateActive && s.PStateIndex() != 0 {
			t.Fatalf("server %d left at p-state %d after recovery", i, s.PStateIndex())
		}
	}
}

func TestDegraderConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, smallDCConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := []DegraderConfig{
		{ShedInletC: 25, RecoverInletC: 30},
		{EmergencyCapFrac: -0.2},
	}
	for i, cfg := range bad {
		if _, err := NewDegrader(e, dc, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTelemetryGuard(t *testing.T) {
	if _, err := NewTelemetryGuard(0); err == nil {
		t.Error("maxDark 0 accepted")
	}
	g, err := NewTelemetryGuard(2)
	if err != nil {
		t.Fatal(err)
	}
	// Dark before any good round: nothing to fall back on.
	m, degraded := g.Observe(nil, false)
	if m != nil || degraded {
		t.Fatalf("first dark round: map %v degraded %v", m, degraded)
	}
	good := []float64{21, 22}
	m, degraded = g.Observe(good, true)
	if degraded || m[0] != 21 {
		t.Fatal("good round mishandled")
	}
	// Two dark rounds: last-good replayed, degraded on the second.
	m, degraded = g.Observe(nil, false)
	if degraded || m == nil || m[1] != 22 {
		t.Fatalf("dark round 1: map %v degraded %v", m, degraded)
	}
	m, degraded = g.Observe(nil, false)
	if !degraded || m[1] != 22 {
		t.Fatalf("dark round 2: map %v degraded %v", m, degraded)
	}
	if g.DarkRounds() != 2 || g.Fallbacks() != 3 {
		t.Fatalf("dark %d fallbacks %d", g.DarkRounds(), g.Fallbacks())
	}
	// Recovery resets the dark counter and the guard must not alias the
	// caller's slice.
	good2 := []float64{25, 26}
	g.Observe(good2, true)
	good2[0] = 99
	m, _ = g.Observe(nil, false)
	if m[0] != 25 {
		t.Fatalf("guard aliased caller slice: %v", m)
	}
	if g.DarkRounds() != 1 {
		t.Fatalf("dark rounds %d after recovery+1, want 1", g.DarkRounds())
	}
}
