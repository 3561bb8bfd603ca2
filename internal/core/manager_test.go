package core

import (
	"testing"
	"time"

	"repro/internal/onoff"
	"repro/internal/sim"
	"repro/internal/workload"
)

// pathologyConfig builds the §5.1 scenario: moderate constant load on a
// fleet large enough for the oblivious composition to run away.
func pathologyConfig(mode PolicyMode) ManagerConfig {
	return ManagerConfig{
		ServerConfig:   testServerConfig(),
		FleetSize:      40,
		Queue:          workload.DefaultQueueModel(), // 20 ms service time
		SLA:            100 * time.Millisecond,
		DecisionPeriod: time.Minute,
		Mode:           mode,
		DVFSTarget:     0.8,
		Trigger: onoff.DelayTrigger{
			High: 60 * time.Millisecond, Low: 25 * time.Millisecond,
			StepUp: 1, StepDown: 1, Min: 1, Max: 40,
		},
		InitialOn: 10,
	}
}

func runMode(t *testing.T, mode PolicyMode, demand DemandFunc, horizon time.Duration) RunResult {
	t.Helper()
	e := sim.NewEngine(42)
	m, err := NewManager(e, pathologyConfig(mode), demand)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := e.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return m.Result(horizon)
}

// TestManagerStartHandleStopsDecisions: cancelling the handle Start
// returns stops the decision loop.
func TestManagerStartHandleStopsDecisions(t *testing.T) {
	e := sim.NewEngine(42)
	m, err := NewManager(e, pathologyConfig(ModeCoordinated), func(time.Duration) float64 { return 100 })
	if err != nil {
		t.Fatal(err)
	}
	h := m.Start()
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	decisions := m.Decisions()
	if decisions == 0 {
		t.Fatal("no decisions in the first hour")
	}
	e.Cancel(h)
	if err := e.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.Decisions() != decisions {
		t.Errorf("decisions grew from %d to %d after cancelling Start's handle", decisions, m.Decisions())
	}
}

func TestManagerValidation(t *testing.T) {
	demand := func(time.Duration) float64 { return 100 }
	e := sim.NewEngine(1)
	tests := []struct {
		name   string
		mutate func(*ManagerConfig)
	}{
		{"zero fleet", func(c *ManagerConfig) { c.FleetSize = 0 }},
		{"bad server", func(c *ManagerConfig) { c.ServerConfig.PeakPower = 0 }},
		{"bad queue", func(c *ManagerConfig) { c.Queue = workload.QueueModel{} }},
		{"zero sla", func(c *ManagerConfig) { c.SLA = 0 }},
		{"zero period", func(c *ManagerConfig) { c.DecisionPeriod = 0 }},
		{"unknown mode", func(c *ManagerConfig) { c.Mode = PolicyMode(99) }},
		{"bad dvfs target", func(c *ManagerConfig) { c.Mode = ModeDVFSOnly; c.DVFSTarget = 0 }},
		{"bad trigger", func(c *ManagerConfig) { c.Mode = ModeOnOffOnly; c.Trigger = onoff.DelayTrigger{} }},
		{"initial out of range", func(c *ManagerConfig) { c.InitialOn = 999 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := pathologyConfig(ModeCoordinated)
			tt.mutate(&cfg)
			if _, err := NewManager(e, cfg, demand); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if _, err := NewManager(e, pathologyConfig(ModeCoordinated), nil); err == nil {
		t.Error("nil demand should error")
	}
}

func TestObliviousCompositionPathology(t *testing.T) {
	// Paper §5.1 (after [29]): "the composition of power state
	// adjustment and on/off control may actually hurt energy saving
	// goals if performed without coordination … The energy expended on
	// keeping a larger number of machines on may not necessarily be
	// offset by DVS savings."
	const offered = 8_000.0
	demand := func(time.Duration) float64 { return offered }
	const horizon = 6 * time.Hour

	alwaysOn := runMode(t, ModeAlwaysOn, demand, horizon)
	onOffOnly := runMode(t, ModeOnOffOnly, demand, horizon)
	dvfsOnly := runMode(t, ModeDVFSOnly, demand, horizon)
	oblivious := runMode(t, ModeOblivious, demand, horizon)
	coordinated := runMode(t, ModeCoordinated, demand, horizon)

	// The oblivious composition spends MORE energy than either policy
	// alone — the headline pathology.
	if oblivious.EnergyKWh <= onOffOnly.EnergyKWh {
		t.Errorf("oblivious %.2f kWh not above on/off-only %.2f kWh",
			oblivious.EnergyKWh, onOffOnly.EnergyKWh)
	}
	if oblivious.EnergyKWh <= dvfsOnly.EnergyKWh {
		t.Errorf("oblivious %.2f kWh not above DVFS-only %.2f kWh",
			oblivious.EnergyKWh, dvfsOnly.EnergyKWh)
	}
	// Coordination restores the savings: no worse than every
	// alternative.
	for _, r := range []RunResult{alwaysOn, onOffOnly, dvfsOnly, oblivious} {
		if coordinated.EnergyKWh > r.EnergyKWh+1e-9 {
			t.Errorf("coordinated %.2f kWh above %v %.2f kWh",
				coordinated.EnergyKWh, r.Mode, r.EnergyKWh)
		}
	}
	// The oblivious loop turned on far more machines than coordination.
	if oblivious.SwitchOns <= coordinated.SwitchOns {
		t.Errorf("oblivious switch-ons %d not above coordinated %d",
			oblivious.SwitchOns, coordinated.SwitchOns)
	}
	if oblivious.MeanActive <= coordinated.MeanActive {
		t.Errorf("oblivious mean active %.1f not above coordinated %.1f",
			oblivious.MeanActive, coordinated.MeanActive)
	}
	// Everyone still held the SLA at steady moderate load (the waste is
	// energy, not user experience).
	for _, r := range []RunResult{coordinated, oblivious, onOffOnly, dvfsOnly, alwaysOn} {
		if r.SLAViolationRate > 0.1 {
			t.Errorf("%v SLA violation rate %.2f too high", r.Mode, r.SLAViolationRate)
		}
		if r.DroppedFraction > 0.01 {
			t.Errorf("%v dropped %.3f of load", r.Mode, r.DroppedFraction)
		}
	}
	// Always-on burns the most energy of all.
	if alwaysOn.EnergyKWh <= oblivious.EnergyKWh {
		t.Errorf("always-on %.2f kWh not above oblivious %.2f kWh",
			alwaysOn.EnergyKWh, oblivious.EnergyKWh)
	}
}

func TestCoordinatedTracksElasticDemand(t *testing.T) {
	// Diurnal demand: the coordinated manager should scale the active
	// count down at night and up in the day while holding the SLA.
	demand := func(now time.Duration) float64 {
		h := now.Hours() - 24*float64(int(now.Hours()/24))
		base := 3_000.0
		if h >= 9 && h < 18 {
			base = 15_000
		}
		return base
	}
	e := sim.NewEngine(7)
	cfg := pathologyConfig(ModeCoordinated)
	cfg.Record = true
	m, err := NewManager(e, cfg, demand)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := e.Run(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	res := m.Result(48 * time.Hour)
	if res.SLAViolationRate > 0.05 {
		t.Errorf("violation rate %.3f under elastic tracking", res.SLAViolationRate)
	}
	// Find day and night actives from the samples.
	var dayActive, nightActive, dayN, nightN float64
	for _, s := range res.Samples {
		h := s.At.Hours() - 24*float64(int(s.At.Hours()/24))
		if h >= 10 && h < 17 {
			dayActive += float64(s.Active)
			dayN++
		}
		if h >= 1 && h < 8 {
			nightActive += float64(s.Active)
			nightN++
		}
	}
	if dayN == 0 || nightN == 0 {
		t.Fatal("no samples recorded")
	}
	day := dayActive / dayN
	night := nightActive / nightN
	if day <= 1.5*night {
		t.Errorf("daytime fleet %.1f not well above nighttime %.1f", day, night)
	}
}

func TestManagerRecording(t *testing.T) {
	demand := func(time.Duration) float64 { return 1000 }
	e := sim.NewEngine(1)
	cfg := pathologyConfig(ModeCoordinated)
	cfg.Record = true
	m, err := NewManager(e, cfg, demand)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	res := m.Result(time.Hour)
	if len(res.Samples) != 60 {
		t.Errorf("samples = %d, want 60 (one per minute)", len(res.Samples))
	}
	for _, s := range res.Samples {
		if s.PowerW < 0 || s.Active < 0 || s.Offered != 1000 {
			t.Errorf("bad sample %+v", s)
		}
	}
}

func TestPolicyModeString(t *testing.T) {
	for m, want := range map[PolicyMode]string{
		ModeAlwaysOn: "always-on", ModeOnOffOnly: "onoff-only",
		ModeDVFSOnly: "dvfs-only", ModeOblivious: "oblivious",
		ModeCoordinated: "coordinated", PolicyMode(9): "mode(9)",
	} {
		if m.String() != want {
			t.Errorf("mode %d = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestNegativeDemandClamped(t *testing.T) {
	e := sim.NewEngine(1)
	m, err := NewManager(e, pathologyConfig(ModeCoordinated), func(time.Duration) float64 { return -500 })
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	res := m.Result(time.Hour)
	if res.DroppedFraction != 0 {
		t.Errorf("dropped fraction %v for negative demand", res.DroppedFraction)
	}
}
