package fault

import (
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/power"
	"repro/internal/sensornet"
	"repro/internal/server"
	"repro/internal/sim"
)

// collect subscribes a recording listener and returns the notice log.
func collect(in *Injector) *[]Notice {
	var log []Notice
	in.Subscribe(func(_ *sim.Engine, n Notice) { log = append(log, n) })
	return &log
}

func TestArmValidation(t *testing.T) {
	e := sim.NewEngine(1)
	in := NewInjector(e)
	cases := []struct {
		name string
		ev   Event
	}{
		{"utility unwired", Event{Kind: UtilityOutage, At: time.Minute}},
		{"room unwired", Event{Kind: CRACFailure, At: time.Minute}},
		{"servers unwired", Event{Kind: ServerCrash, At: time.Minute}},
		{"sensors unwired", Event{Kind: SensorDropout, At: time.Minute}},
		{"not injectable", Event{Kind: GeneratorOnline, At: time.Minute}},
	}
	for _, tc := range cases {
		if err := in.Arm([]Event{tc.ev}); err == nil {
			t.Errorf("%s: Arm accepted %+v", tc.name, tc.ev)
		}
	}
	room, err := cooling.TwoZoneRoom(0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	in.WireRoom(room)
	if err := in.Arm([]Event{{Kind: CRACFailure, At: time.Minute, Index: 5}}); err == nil {
		t.Error("Arm accepted out-of-range CRAC index")
	}
	if err := in.Arm([]Event{{Kind: CRACFailure, At: -time.Minute}}); err == nil {
		t.Error("Arm accepted event in the past")
	}
	if in.Armed() != 0 {
		t.Errorf("failed Arm still armed %d events", in.Armed())
	}
}

func TestCRACFailureInjectAndRevert(t *testing.T) {
	e := sim.NewEngine(1)
	in := NewInjector(e)
	room, err := cooling.TwoZoneRoom(0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	room.Attach(e)
	in.WireRoom(room)
	log := collect(in)
	if err := in.Arm([]Event{{Kind: CRACFailure, At: time.Hour, Duration: 2 * time.Hour, Index: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(90 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !room.UnitFailed(0) || room.FailedUnits() != 1 {
		t.Fatal("unit 0 should be failed mid-window")
	}
	if err := e.Run(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if room.UnitFailed(0) {
		t.Fatal("unit 0 should have been repaired")
	}
	if in.Injected() != 1 || in.Reverted() != 1 || in.Count(CRACFailure) != 1 {
		t.Fatalf("counters: injected=%d reverted=%d", in.Injected(), in.Reverted())
	}
	want := []Notice{
		{Kind: CRACFailure, At: time.Hour, Start: true, Index: 0},
		{Kind: CRACFailure, At: 3 * time.Hour, Start: false, Index: 0},
	}
	if len(*log) != len(want) {
		t.Fatalf("notices: got %v want %v", *log, want)
	}
	for i, n := range *log {
		if n != want[i] {
			t.Errorf("notice %d: got %+v want %+v", i, n, want[i])
		}
	}
}

func TestServerCrashAndRecovery(t *testing.T) {
	e := sim.NewEngine(1)
	in := NewInjector(e)
	cfg := server.DefaultConfig()
	s := server.MustNew(cfg)
	in.WireServers([]*server.Server{s})
	log := collect(in)
	s.PowerOn(e)
	if err := in.Arm([]Event{
		{Kind: ServerCrash, At: 10 * time.Minute, Duration: 20 * time.Minute, Index: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if s.State() != server.StateOff || s.Crashes() != 1 {
		t.Fatalf("state %v crashes %d after injection", s.State(), s.Crashes())
	}
	if err := e.Run(31*time.Minute + cfg.BootDelay); err != nil {
		t.Fatal(err)
	}
	if s.State() != server.StateActive {
		t.Fatalf("state %v after recovery window + boot", s.State())
	}
	if len(*log) != 2 || !(*log)[0].Start || (*log)[1].Start {
		t.Fatalf("want crash+recovery notices, got %v", *log)
	}
}

func TestServerCrashNoOpWhenOff(t *testing.T) {
	e := sim.NewEngine(1)
	in := NewInjector(e)
	s := server.MustNew(server.DefaultConfig())
	in.WireServers([]*server.Server{s})
	log := collect(in)
	if err := in.Arm([]Event{{Kind: ServerCrash, At: time.Minute, Duration: time.Hour, Index: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if in.Injected() != 0 || len(*log) != 0 {
		t.Fatalf("crash of an Off server must be a no-op, got injected=%d notices=%v",
			in.Injected(), *log)
	}
}

func TestSensorFaultInjectAndRevert(t *testing.T) {
	e := sim.NewEngine(1)
	in := NewInjector(e)
	net, err := sensornet.NewNetwork(sensornet.DefaultNetworkConfig(4), e.RNG().Fork("net"))
	if err != nil {
		t.Fatal(err)
	}
	in.WireSensors(net)
	if err := in.Arm([]Event{
		{Kind: SensorDropout, At: time.Minute, Duration: time.Hour, Index: 1},
		{Kind: SensorStuck, At: time.Minute, Duration: time.Hour, Index: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if net.Fault(1) != sensornet.FaultDropout || net.Fault(2) != sensornet.FaultStuck {
		t.Fatalf("fault modes mid-window: %v %v", net.Fault(1), net.Fault(2))
	}
	if net.FaultyCount() != 2 {
		t.Fatalf("faulty count %d", net.FaultyCount())
	}
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if net.FaultyCount() != 0 {
		t.Fatalf("faults should have cleared, count %d", net.FaultyCount())
	}
	if in.Injected() != 2 || in.Reverted() != 2 {
		t.Fatalf("counters: injected=%d reverted=%d", in.Injected(), in.Reverted())
	}
}

// utilityFixture wires an injector with a battery sized for ~10 minutes
// at the constant 1 kW load.
func utilityFixture(t *testing.T, e *sim.Engine, failProb float64, retries int) (*Injector, *Utility) {
	t.Helper()
	in := NewInjector(e)
	bat, err := power.BatteryForAutonomy(1000, 10*time.Minute, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	u, err := in.WireUtility(UtilityConfig{
		Battery:          bat,
		LoadW:            func() float64 { return 1000 },
		GenStartDelay:    2 * time.Minute,
		GenStartFailProb: failProb,
		GenRetries:       retries,
		GenRetryBackoff:  time.Minute,
		Tick:             5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in, u
}

func TestUtilityRideThrough(t *testing.T) {
	e := sim.NewEngine(1)
	in, u := utilityFixture(t, e, 0, 0) // generator always starts
	log := collect(in)
	if err := in.Arm([]Event{{Kind: UtilityOutage, At: time.Hour, Duration: 30 * time.Minute}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if u.UnservedJ() != 0 {
		t.Fatalf("ride-through dropped %v J", u.UnservedJ())
	}
	// The UPS carried ~2 minutes of 1 kW: 120 kJ within one tick's slop.
	if u.BridgedJ() < 115_000 || u.BridgedJ() > 130_000 {
		t.Fatalf("bridged %v J, want ~120 kJ", u.BridgedJ())
	}
	if u.GenAttempts() != 1 || u.GenFailures() != 0 {
		t.Fatalf("gen attempts %d failures %d", u.GenAttempts(), u.GenFailures())
	}
	if !u.GridUp() || u.GeneratorOn() {
		t.Fatal("grid should be restored, generator off")
	}
	// Battery recharges to full after restoration.
	if frac := u.cfg.Battery.ChargeFraction(); frac < 0.999 {
		t.Fatalf("battery at %v after recharge window", frac)
	}
	kinds := []Kind{UtilityOutage, GeneratorOnline, UtilityOutage}
	if len(*log) != len(kinds) {
		t.Fatalf("notices %v", *log)
	}
	for i, n := range *log {
		if n.Kind != kinds[i] {
			t.Fatalf("notice %d kind %v want %v", i, n.Kind, kinds[i])
		}
	}
}

func TestUtilityDepletionWhenGeneratorNeverStarts(t *testing.T) {
	e := sim.NewEngine(1)
	in, u := utilityFixture(t, e, 1, 2) // every start attempt fails
	log := collect(in)
	if err := in.Arm([]Event{{Kind: UtilityOutage, At: time.Hour, Duration: 30 * time.Minute}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if u.GenAttempts() != 3 || u.GenFailures() != 3 {
		t.Fatalf("gen attempts %d failures %d, want bounded retry 3/3", u.GenAttempts(), u.GenFailures())
	}
	if u.UnservedJ() <= 0 {
		t.Fatal("depleted outage must drop load")
	}
	// ~10 minutes bridged, ~20 minutes unserved at 1 kW.
	if u.UnservedJ() < 1_000_000 {
		t.Fatalf("unserved %v J, want ~1.2 MJ", u.UnservedJ())
	}
	sawDepleted := false
	for _, n := range *log {
		if n.Kind == UPSDepleted && n.Start {
			sawDepleted = true
		}
	}
	if !sawDepleted {
		t.Fatal("missing UPSDepleted notice")
	}
}

func TestUtilityOverlappingOutagesCoalesce(t *testing.T) {
	e := sim.NewEngine(1)
	in, u := utilityFixture(t, e, 0, 0)
	if err := in.Arm([]Event{
		{Kind: UtilityOutage, At: time.Hour, Duration: 30 * time.Minute},
		{Kind: UtilityOutage, At: time.Hour + 10*time.Minute, Duration: 30 * time.Minute},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if u.Outages() != 1 {
		t.Fatalf("overlapping outages should coalesce, got %d", u.Outages())
	}
	if !u.GridUp() {
		t.Fatal("grid should be up at the end")
	}
}

func TestGenerateScheduleDeterministicAndBounded(t *testing.T) {
	cfg := ScheduleConfig{
		Horizon:     12 * time.Hour,
		OutageEvery: 6 * time.Hour, OutageFor: 20 * time.Minute,
		CRACEvery: 4 * time.Hour, CRACFor: time.Hour,
		CrashEvery: 2 * time.Hour, CrashFor: 30 * time.Minute,
		SensorEvery: 3 * time.Hour, SensorFor: time.Hour,
		CRACs: 2, Servers: 8, Sensors: 4,
	}
	a, err := GenerateSchedule(sim.NewRNG(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSchedule(sim.NewRNG(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("expected a non-empty schedule at these rates")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	last := time.Duration(-1)
	for _, ev := range a {
		if ev.At < last {
			t.Fatal("schedule not sorted by time")
		}
		last = ev.At
		if ev.At >= cfg.Horizon {
			t.Fatalf("event at %v beyond horizon", ev.At)
		}
		if ev.Duration < time.Second {
			t.Fatalf("duration %v below 1 s floor", ev.Duration)
		}
	}
	if _, err := GenerateSchedule(sim.NewRNG(1), ScheduleConfig{}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := GenerateSchedule(sim.NewRNG(1), ScheduleConfig{
		Horizon: time.Hour, CrashEvery: time.Minute, Servers: 1,
	}); err == nil {
		t.Error("enabled class with zero mean duration accepted")
	}
}

func TestUtilityConfigValidation(t *testing.T) {
	bat, err := power.NewBattery(1000, 100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	load := func() float64 { return 100 }
	good := UtilityConfig{Battery: bat, LoadW: load, Tick: time.Second}
	bad := []UtilityConfig{
		{LoadW: load, Tick: time.Second},
		{Battery: bat, Tick: time.Second},
		{Battery: bat, LoadW: load},
		{Battery: bat, LoadW: load, Tick: time.Second, GenStartDelay: -time.Second},
		{Battery: bat, LoadW: load, Tick: time.Second, GenStartFailProb: 1.5},
		{Battery: bat, LoadW: load, Tick: time.Second, GenRetries: -1},
		{Battery: bat, LoadW: load, Tick: time.Second, GenRetries: 2},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func domainFixture(t *testing.T, e *sim.Engine) (*Injector, []*server.Server) {
	t.Helper()
	in := NewInjector(e)
	servers := make([]*server.Server, 4)
	for i := range servers {
		servers[i] = server.MustNew(server.DefaultConfig())
		servers[i].PowerOn(e)
	}
	in.WireServers(servers)
	if err := in.WireDomains([][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	return in, servers
}

func TestRackFailureKillsDomainTogether(t *testing.T) {
	e := sim.NewEngine(1)
	in, servers := domainFixture(t, e)
	log := collect(in)
	if err := in.Arm([]Event{
		{Kind: RackFailure, At: 10 * time.Minute, Duration: 30 * time.Minute, Index: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// The whole domain dies as one event; the other rack is untouched.
	if servers[0].State() != server.StateOff || servers[1].State() != server.StateOff {
		t.Fatalf("domain 0 states %v/%v, want both off", servers[0].State(), servers[1].State())
	}
	if servers[2].State() != server.StateActive || servers[3].State() != server.StateActive {
		t.Fatalf("domain 1 states %v/%v, want both active", servers[2].State(), servers[3].State())
	}
	if in.Injected() != 1 || in.Count(RackFailure) != 1 {
		t.Fatalf("correlated kill must count once: injected %d", in.Injected())
	}
	// Shared repair clock: both machines come back from the one revert.
	boot := server.DefaultConfig().BootDelay
	if err := e.Run(41*time.Minute + boot); err != nil {
		t.Fatal(err)
	}
	if servers[0].State() != server.StateActive || servers[1].State() != server.StateActive {
		t.Fatalf("domain 0 states %v/%v after repair", servers[0].State(), servers[1].State())
	}
	if in.Reverted() != 1 {
		t.Fatalf("reverted %d, want 1 shared repair", in.Reverted())
	}
	if len(*log) != 2 || !(*log)[0].Start || (*log)[1].Start || (*log)[0].Index != 0 {
		t.Fatalf("want one start + one end notice for domain 0, got %v", *log)
	}
}

func TestRackFailureRepairSkipsRebootedServers(t *testing.T) {
	e := sim.NewEngine(1)
	in, servers := domainFixture(t, e)
	if err := in.Arm([]Event{
		{Kind: RackFailure, At: time.Minute, Duration: 30 * time.Minute, Index: 1},
	}); err != nil {
		t.Fatal(err)
	}
	// The MRM reboots one machine mid-repair; the shared repair must not
	// double-boot it.
	e.At(10*time.Minute, func(e *sim.Engine) { servers[2].PowerOn(e) })
	boot := server.DefaultConfig().BootDelay
	if err := e.Run(32*time.Minute + boot); err != nil {
		t.Fatal(err)
	}
	if servers[2].State() != server.StateActive || servers[3].State() != server.StateActive {
		t.Fatalf("states %v/%v after mixed recovery", servers[2].State(), servers[3].State())
	}
	if in.Reverted() != 1 {
		t.Fatalf("reverted %d, want 1", in.Reverted())
	}
}

func TestCapacityDipNotifiesAndCoalesces(t *testing.T) {
	e := sim.NewEngine(1)
	in := NewInjector(e)
	log := collect(in)
	if err := in.Arm([]Event{
		{Kind: CapacityDip, At: time.Minute, Duration: 10 * time.Minute, Frac: 0.7},
		{Kind: CapacityDip, At: 5 * time.Minute, Duration: time.Hour, Frac: 0.3}, // overlaps: coalesced
	}); err != nil {
		t.Fatal(err)
	}
	e.At(6*time.Minute, func(*sim.Engine) {
		if in.ActiveDip() != 0.7 {
			t.Errorf("active dip %v mid-event, want 0.7", in.ActiveDip())
		}
	})
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if in.ActiveDip() != 0 {
		t.Errorf("dip %v still active after revert", in.ActiveDip())
	}
	if in.Count(CapacityDip) != 1 || in.Reverted() != 1 {
		t.Errorf("overlapping dips must coalesce: injected %d reverted %d", in.Count(CapacityDip), in.Reverted())
	}
	if len(*log) != 2 || (*log)[0].Frac != 0.7 || (*log)[1].Frac != 0.7 || (*log)[1].Start {
		t.Errorf("want start+end notices carrying Frac 0.7, got %v", *log)
	}
}

func TestDomainAndDipArmValidation(t *testing.T) {
	e := sim.NewEngine(1)
	in := NewInjector(e)
	if err := in.WireDomains([][]int{{0}}); err == nil {
		t.Error("WireDomains without servers accepted")
	}
	in.WireServers([]*server.Server{server.MustNew(server.DefaultConfig())})
	if err := in.WireDomains([][]int{{}}); err == nil {
		t.Error("empty domain accepted")
	}
	if err := in.WireDomains([][]int{{0, 7}}); err == nil {
		t.Error("out-of-range domain index accepted")
	}
	if err := in.Arm([]Event{{Kind: RackFailure, At: time.Minute, Index: 0}}); err == nil {
		t.Error("rack failure without WireDomains accepted")
	}
	if err := in.WireDomains([][]int{{0}}); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm([]Event{{Kind: RackFailure, At: time.Minute, Index: 3}}); err == nil {
		t.Error("domain index out of range accepted")
	}
	if err := in.Arm([]Event{{Kind: CapacityDip, At: time.Minute, Frac: 0}}); err == nil {
		t.Error("zero dip fraction accepted")
	}
	if err := in.Arm([]Event{{Kind: CapacityDip, At: time.Minute, Frac: 1.5}}); err == nil {
		t.Error("dip fraction above 1 accepted")
	}
}

func TestGenerateScheduleNewClassesPreserveStream(t *testing.T) {
	base := ScheduleConfig{
		Horizon:     12 * time.Hour,
		OutageEvery: 6 * time.Hour, OutageFor: 20 * time.Minute,
		CRACEvery: 4 * time.Hour, CRACFor: time.Hour,
		CrashEvery: 2 * time.Hour, CrashFor: 30 * time.Minute,
		SensorEvery: 3 * time.Hour, SensorFor: time.Hour,
		CRACs: 2, Servers: 8, Sensors: 4,
	}
	orig, err := GenerateSchedule(sim.NewRNG(42), base)
	if err != nil {
		t.Fatal(err)
	}
	ext := base
	ext.RackEvery, ext.RackFor, ext.Racks = 4*time.Hour, 30*time.Minute, 2
	ext.DipEvery, ext.DipFor, ext.DipFrac = 5*time.Hour, 10*time.Minute, 0.6
	got, err := GenerateSchedule(sim.NewRNG(42), ext)
	if err != nil {
		t.Fatal(err)
	}
	var racks, dips int
	var legacy []Event
	for _, ev := range got {
		switch ev.Kind {
		case RackFailure:
			racks++
			if ev.Index < 0 || ev.Index >= 2 {
				t.Fatalf("rack index %d out of range", ev.Index)
			}
		case CapacityDip:
			dips++
			if ev.Frac != 0.6 {
				t.Fatalf("dip frac %v, want 0.6", ev.Frac)
			}
		default:
			legacy = append(legacy, ev)
		}
	}
	if racks == 0 || dips == 0 {
		t.Fatalf("expected rack (%d) and dip (%d) events at these rates", racks, dips)
	}
	// The new classes draw after the original ones, so the legacy events
	// of an extended schedule are byte-identical to the original run.
	if len(legacy) != len(orig) {
		t.Fatalf("legacy events %d vs original %d", len(legacy), len(orig))
	}
	for i := range orig {
		if legacy[i] != orig[i] {
			t.Fatalf("event %d perturbed by new classes: %+v vs %+v", i, legacy[i], orig[i])
		}
	}
	if _, err := GenerateSchedule(sim.NewRNG(1), ScheduleConfig{
		Horizon: time.Hour, DipEvery: time.Minute, DipFor: time.Minute, DipFrac: 2,
	}); err == nil {
		t.Error("dip fraction above 1 accepted by generator")
	}
}
