package server

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func activeServer(t *testing.T, e *sim.Engine) *Server {
	t.Helper()
	s := MustNew(DefaultConfig())
	s.PowerOn(e)
	if err := e.Run(e.Now() + s.Config().BootDelay); err != nil {
		t.Fatal(err)
	}
	s.Sync(e.Now())
	if s.State() != StateActive {
		t.Fatalf("server not active after boot delay: %v", s.State())
	}
	return s
}

func TestIdlePowerIsSixtyPercentOfPeak(t *testing.T) {
	// Paper §4.3: "a powered on server with zero workload consumes
	// about 60% of its peak power."
	e := sim.NewEngine(1)
	s := activeServer(t, e)
	idle := s.Power()
	peak := s.Config().PeakPower
	if math.Abs(idle/peak-0.60) > 1e-9 {
		t.Errorf("idle/peak = %v, want 0.60", idle/peak)
	}
	s.SetUtilization(e.Now(), 1)
	if math.Abs(s.Power()-peak) > 1e-9 {
		t.Errorf("full-load power = %v, want %v", s.Power(), peak)
	}
}

func TestPowerMonotoneInUtilization(t *testing.T) {
	e := sim.NewEngine(1)
	s := activeServer(t, e)
	check := func(a, b float64) bool {
		ua := math.Abs(math.Mod(a, 1))
		ub := math.Abs(math.Mod(b, 1))
		if ua > ub {
			ua, ub = ub, ua
		}
		s.SetUtilization(e.Now(), ua)
		pa := s.Power()
		s.SetUtilization(e.Now(), ub)
		pb := s.Power()
		return pa <= pb+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOffServerDrawsNothing(t *testing.T) {
	s := MustNew(DefaultConfig())
	if s.Power() != 0 {
		t.Errorf("off power = %v, want 0", s.Power())
	}
	if s.AvailableCapacity() != 0 {
		t.Errorf("off capacity = %v, want 0", s.AvailableCapacity())
	}
	// Utilization on an off server is ignored.
	s.SetUtilization(0, 0.5)
	if s.Utilization() != 0 {
		t.Error("off server accepted utilization")
	}
}

func TestBootLifecycleAndEnergy(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	s := MustNew(cfg)
	s.PowerOn(e)
	if s.State() != StateBooting {
		t.Fatalf("state after PowerOn = %v, want booting", s.State())
	}
	if s.Boots() != 1 {
		t.Errorf("Boots = %d, want 1", s.Boots())
	}
	// Boot energy is charged up front.
	if s.EnergyJ() < cfg.BootEnergy {
		t.Errorf("energy %v missing boot energy %v", s.EnergyJ(), cfg.BootEnergy)
	}
	// During boot it draws idle power.
	if got := s.Power(); math.Abs(got-cfg.PeakPower*cfg.IdleFraction) > 1e-9 {
		t.Errorf("boot power = %v, want idle %v", got, cfg.PeakPower*cfg.IdleFraction)
	}
	if err := e.Run(cfg.BootDelay); err != nil {
		t.Fatal(err)
	}
	s.Sync(e.Now())
	if s.State() != StateActive {
		t.Fatalf("state after boot = %v, want active", s.State())
	}
	// Double PowerOn is a no-op.
	s.PowerOn(e)
	if s.Boots() != 1 {
		t.Error("PowerOn on active server counted a boot")
	}
	// Graceful shutdown.
	s.PowerOff(e)
	if s.State() != StateShuttingDown {
		t.Fatalf("state after PowerOff = %v", s.State())
	}
	if err := e.Run(e.Now() + cfg.ShutdownDelay); err != nil {
		t.Fatal(err)
	}
	s.Sync(e.Now())
	if s.State() != StateOff {
		t.Fatalf("state after shutdown = %v, want off", s.State())
	}
}

func TestEnergyIntegration(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.BootEnergy = 0
	cfg.BootDelay = 0
	s := MustNew(cfg)
	s.PowerOn(e)
	if err := e.Run(0); err != nil { // zero-delay boot completes at t=0
		t.Fatal(err)
	}
	s.Sync(0)
	s.SetUtilization(0, 1.0)
	s.Sync(time.Hour)
	// One hour at peak power = PeakPower * 3600 J.
	want := cfg.PeakPower * 3600
	if math.Abs(s.EnergyJ()-want) > 1e-6*want {
		t.Errorf("energy = %v J, want %v J", s.EnergyJ(), want)
	}
}

func TestDVFSReducesPowerAndCapacity(t *testing.T) {
	e := sim.NewEngine(1)
	s := activeServer(t, e)
	now := e.Now()
	s.SetUtilization(now, 1)
	fullPower := s.Power()
	fullCap := s.AvailableCapacity()
	if err := s.SetPState(now, len(s.Config().PStates)-1); err != nil {
		t.Fatal(err)
	}
	slowPower := s.Power()
	slowCap := s.AvailableCapacity()
	if slowPower >= fullPower {
		t.Errorf("slowest p-state power %v not below nominal %v", slowPower, fullPower)
	}
	if slowCap >= fullCap {
		t.Errorf("slowest p-state capacity %v not below nominal %v", slowCap, fullCap)
	}
	// DVFS is superlinear: power drops faster than capacity.
	if (slowPower-s.Config().PeakPower*s.Config().IdleFraction)/(fullPower-s.Config().PeakPower*s.Config().IdleFraction) >= slowCap/fullCap {
		t.Error("dynamic power did not drop superlinearly vs capacity")
	}
	if err := s.SetPState(now, 99); err == nil {
		t.Error("out-of-range p-state should error")
	}
}

func TestThrottleAndCoreParking(t *testing.T) {
	e := sim.NewEngine(1)
	s := activeServer(t, e)
	now := e.Now()
	s.SetUtilization(now, 1)
	base := s.Power()
	baseCap := s.AvailableCapacity()

	if err := s.SetThrottle(now, 0.5); err != nil {
		t.Fatal(err)
	}
	if s.Power() >= base {
		t.Error("throttling did not reduce power")
	}
	if math.Abs(s.AvailableCapacity()-baseCap/2) > 1e-9 {
		t.Errorf("50%% throttle capacity = %v, want %v", s.AvailableCapacity(), baseCap/2)
	}
	if err := s.SetThrottle(now, 0); err == nil {
		t.Error("zero throttle should error")
	}
	if err := s.SetThrottle(now, 1); err != nil {
		t.Fatal(err)
	}

	// Parking half the cores saves idle power and halves capacity share.
	s.SetUtilization(now, 0)
	idleFull := s.Power()
	if err := s.ParkCores(now, s.Config().Cores/2); err != nil {
		t.Fatal(err)
	}
	idleParked := s.Power()
	wantSave := s.Config().PeakPower * s.Config().IdleFraction * s.Config().ParkSavings * 0.5
	if math.Abs((idleFull-idleParked)-wantSave) > 1e-9 {
		t.Errorf("parking saved %v W, want %v W", idleFull-idleParked, wantSave)
	}
	if err := s.ParkCores(now, s.Config().Cores); err == nil {
		t.Error("parking all cores should error")
	}
	if err := s.ParkCores(now, -1); err == nil {
		t.Error("negative parking should error")
	}
}

func TestThermalTrip(t *testing.T) {
	e := sim.NewEngine(1)
	s := activeServer(t, e)
	now := e.Now()
	if trip := s.ObserveInlet(now, 25); trip {
		t.Error("trip at a safe inlet temperature")
	}
	if trip := s.ObserveInlet(now, s.Config().TripTempC+5); !trip {
		t.Error("did not trip above threshold")
	}
	if s.State() != StateOff {
		t.Errorf("state after trip = %v, want off", s.State())
	}
	if s.Trips() != 1 {
		t.Errorf("Trips = %d, want 1", s.Trips())
	}
	// Off servers do not trip again.
	if trip := s.ObserveInlet(now, 99); trip {
		t.Error("off server took a trip")
	}
	if s.InletTempC() != 99 {
		t.Errorf("InletTempC = %v, want 99", s.InletTempC())
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero peak", func(c *Config) { c.PeakPower = 0 }},
		{"idle fraction 1", func(c *Config) { c.IdleFraction = 1 }},
		{"negative idle", func(c *Config) { c.IdleFraction = -0.1 }},
		{"no p-states", func(c *Config) { c.PStates = nil }},
		{"bad p-state freq", func(c *Config) { c.PStates = []PState{{Freq: 1.5, DynFactor: 1}} }},
		{"bad dyn factor", func(c *Config) { c.PStates = []PState{{Freq: 1, DynFactor: 0}} }},
		{"first not nominal", func(c *Config) { c.PStates = []PState{{Freq: 0.5, DynFactor: 0.2}} }},
		{"zero capacity", func(c *Config) { c.Capacity = 0 }},
		{"negative boot delay", func(c *Config) { c.BootDelay = -time.Second }},
		{"negative boot energy", func(c *Config) { c.BootEnergy = -1 }},
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"park savings >1", func(c *Config) { c.ParkSavings = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

func TestTimeMovingBackwardsPanics(t *testing.T) {
	s := MustNew(DefaultConfig())
	s.Sync(time.Hour)
	defer func() {
		if recover() == nil {
			t.Error("backwards time should panic")
		}
	}()
	s.Sync(time.Minute)
}

func TestUtilizationClamped(t *testing.T) {
	e := sim.NewEngine(1)
	s := activeServer(t, e)
	s.SetUtilization(e.Now(), 2.5)
	if s.Utilization() != 1 {
		t.Errorf("utilization = %v, want clamped to 1", s.Utilization())
	}
	s.SetUtilization(e.Now(), -3)
	if s.Utilization() != 0 {
		t.Errorf("utilization = %v, want clamped to 0", s.Utilization())
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{
		StateOff: "off", StateBooting: "booting", StateActive: "active",
		StateShuttingDown: "shutting-down", State(42): "state(42)",
	} {
		if st.String() != want {
			t.Errorf("State(%d) = %q, want %q", int(st), st.String(), want)
		}
	}
}

func TestAccessors(t *testing.T) {
	s := MustNew(DefaultConfig())
	if s.Name() != "server" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.PStateIndex() != 0 {
		t.Errorf("initial p-state = %d", s.PStateIndex())
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid config should panic")
		}
	}()
	bad := DefaultConfig()
	bad.PeakPower = 0
	MustNew(bad)
}

func TestPowerOffFromOffIsNoop(t *testing.T) {
	e := sim.NewEngine(1)
	s := MustNew(DefaultConfig())
	s.PowerOff(e) // off server: nothing happens
	if s.State() != StateOff {
		t.Errorf("state = %v", s.State())
	}
}

func TestPowerCurveValidation(t *testing.T) {
	tests := []struct {
		name  string
		curve []CurvePoint
	}{
		{"single point", []CurvePoint{{0, 0}}},
		{"not starting at origin", []CurvePoint{{0.1, 0}, {1, 1}}},
		{"not ending at one", []CurvePoint{{0, 0}, {0.9, 0.9}}},
		{"non-increasing util", []CurvePoint{{0, 0}, {0.5, 0.2}, {0.5, 0.4}, {1, 1}}},
		{"decreasing fraction", []CurvePoint{{0, 0}, {0.5, 0.6}, {0.8, 0.4}, {1, 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PowerCurve = tt.curve
			if _, err := New(cfg); err == nil {
				t.Error("want validation error")
			}
		})
	}
	good := DefaultConfig()
	good.PowerCurve = BigLittleCurve()
	if _, err := New(good); err != nil {
		t.Errorf("BigLittleCurve rejected: %v", err)
	}
}

func TestBigLittleCurveSavesAtLightLoad(t *testing.T) {
	// §4.1: heterogeneous CMPs absorb light load on efficient cores.
	e := sim.NewEngine(1)
	homo := activeServer(t, e)

	hetCfg := DefaultConfig()
	hetCfg.PowerCurve = BigLittleCurve()
	het := MustNew(hetCfg)
	het.PowerOn(e)
	if err := e.Run(e.Now() + hetCfg.BootDelay); err != nil {
		t.Fatal(err)
	}
	het.Sync(e.Now())

	now := e.Now()
	// At 30 % load the little cores carry it far cheaper.
	homo.SetUtilization(now, 0.3)
	het.SetUtilization(now, 0.3)
	if het.Power() >= homo.Power() {
		t.Errorf("big.LITTLE at 30%% load %vW not below homogeneous %vW", het.Power(), homo.Power())
	}
	// At full load both hit the same peak.
	homo.SetUtilization(now, 1)
	het.SetUtilization(now, 1)
	if math.Abs(het.Power()-homo.Power()) > 1e-9 {
		t.Errorf("peak power differs: %v vs %v", het.Power(), homo.Power())
	}
	// And idle is unchanged (idle power is a platform floor).
	homo.SetUtilization(now, 0)
	het.SetUtilization(now, 0)
	if math.Abs(het.Power()-homo.Power()) > 1e-9 {
		t.Errorf("idle power differs: %v vs %v", het.Power(), homo.Power())
	}
}

func TestPowerCurveInterpolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PowerCurve = BigLittleCurve()
	// Halfway along the first segment: u=0.2 → 0.075 of dynamic.
	if got := cfg.dynFraction(0.2); math.Abs(got-0.075) > 1e-12 {
		t.Errorf("dynFraction(0.2) = %v, want 0.075", got)
	}
	// Breakpoint exactly.
	if got := cfg.dynFraction(0.4); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("dynFraction(0.4) = %v, want 0.15", got)
	}
	// Above the last point clamps to 1.
	if got := cfg.dynFraction(2); got != 1 {
		t.Errorf("dynFraction(2) = %v, want 1", got)
	}
	// Nil curve is identity.
	lin := DefaultConfig()
	if got := lin.dynFraction(0.37); got != 0.37 {
		t.Errorf("linear dynFraction = %v", got)
	}
}

func TestPowerOffAbortsBoot(t *testing.T) {
	e := sim.NewEngine(1)
	s := MustNew(DefaultConfig())
	s.PowerOn(e)
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.State() != StateBooting {
		t.Fatalf("state = %v mid-boot", s.State())
	}
	s.PowerOff(e)
	if s.State() != StateShuttingDown {
		t.Fatalf("state after abort = %v, want shutting-down", s.State())
	}
	// The original boot-completion event must not flip the server back
	// to Active.
	if err := e.Run(e.Now() + DefaultConfig().BootDelay + time.Minute); err != nil {
		t.Fatal(err)
	}
	s.Sync(e.Now())
	if s.State() != StateOff {
		t.Errorf("state after settling = %v, want off", s.State())
	}
	if s.AvailableCapacity() != 0 {
		t.Errorf("aborted boot still advertises capacity %v", s.AvailableCapacity())
	}
	if s.Boots() != 1 {
		t.Errorf("boots = %d, want 1 (energy charged once, not refunded)", s.Boots())
	}
}

func TestPowerOffWhileShuttingDownIsNoop(t *testing.T) {
	e := sim.NewEngine(1)
	s := MustNew(DefaultConfig())
	s.PowerOn(e)
	if err := e.Run(e.Now() + DefaultConfig().BootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	s.PowerOff(e)
	first := s.State()
	s.PowerOff(e) // second call must not extend the shutdown deadline
	if s.State() != first || first != StateShuttingDown {
		t.Fatalf("state = %v, want shutting-down", s.State())
	}
	if err := e.Run(e.Now() + DefaultConfig().ShutdownDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	s.Sync(e.Now())
	if s.State() != StateOff {
		t.Errorf("state = %v, want off", s.State())
	}
}
