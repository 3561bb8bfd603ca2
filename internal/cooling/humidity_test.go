package cooling

import (
	"testing"
	"time"
)

func TestHumidifierValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*HumidifierConfig)
	}{
		{"inverted band", func(c *HumidifierConfig) { c.LowRH = 0.5; c.HighRH = 0.4 }},
		{"zero low", func(c *HumidifierConfig) { c.LowRH = 0 }},
		{"high at 1", func(c *HumidifierConfig) { c.HighRH = 1 }},
		{"target outside band", func(c *HumidifierConfig) { c.TargetRH = 0.9 }},
		{"negative power", func(c *HumidifierConfig) { c.HumidifyW = -1 }},
		{"zero tau", func(c *HumidifierConfig) { c.Tau = 0 }},
		{"gain below 1", func(c *HumidifierConfig) { c.ActuatorGain = 0.5 }},
		{"initial out of range", func(c *HumidifierConfig) { c.InitialRH = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultHumidifierConfig()
			tt.mutate(&cfg)
			if _, err := NewHumidifier(cfg); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if _, err := NewHumidifier(DefaultHumidifierConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// runDriving advances the loop for d with a fixed driving RH, returning
// accumulated actuator energy over the window.
func runDriving(h *Humidifier, driving float64, d time.Duration) float64 {
	before := h.EnergyJ()
	steps := int(d / (10 * time.Second))
	for i := 0; i < steps; i++ {
		h.Step(driving, 10*time.Second)
	}
	return h.EnergyJ() - before
}

func TestHumidifierHoldsBandAgainstDryAir(t *testing.T) {
	// Economizing with dry outside air (15 % RH) pulls the room dry; the
	// humidifier must hold the ASHRAE band at a power cost.
	cfg := DefaultHumidifierConfig()
	h, err := NewHumidifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	energy := runDriving(h, 0.15, 6*time.Hour)
	if h.RH() < cfg.LowRH || h.RH() > cfg.HighRH {
		t.Errorf("RH %v left the band despite humidification", h.RH())
	}
	if energy <= 0 {
		t.Error("dry driving air cost no humidifier energy")
	}
	// The band is active control, not drift: without the actuator the
	// room would sit at the driving RH.
	if h.RH() < 0.30 {
		t.Errorf("RH %v below ASHRAE minimum", h.RH())
	}
}

func TestHumidifierDehumidifiesMuggyAir(t *testing.T) {
	h, err := NewHumidifier(DefaultHumidifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	energy := runDriving(h, 0.90, 6*time.Hour)
	if h.RH() > 0.45+1e-9 {
		t.Errorf("RH %v above ASHRAE maximum despite dehumidification", h.RH())
	}
	if energy <= 0 {
		t.Error("muggy driving air cost no dehumidifier energy")
	}
}

func TestHumidifierIdleInsideBand(t *testing.T) {
	// Driving air already inside the band: no actuator power at all.
	h, err := NewHumidifier(DefaultHumidifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	energy := runDriving(h, 0.40, 6*time.Hour)
	if energy != 0 {
		t.Errorf("in-band driving air cost %v J", energy)
	}
	hum, dehum := h.Active()
	if hum || dehum {
		t.Error("actuators engaged inside the band")
	}
}

func TestHumidifierHysteresisDisengagesAtTarget(t *testing.T) {
	h, err := NewHumidifier(DefaultHumidifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Pull dry until the humidifier engages.
	for i := 0; i < 1000; i++ {
		h.Step(0.10, 10*time.Second)
		if hum, _ := h.Active(); hum {
			break
		}
	}
	if hum, _ := h.Active(); !hum {
		t.Fatal("humidifier never engaged against very dry air")
	}
	// Now neutral driving air: the actuator runs until the target, then
	// disengages rather than chattering at the band edge.
	for i := 0; i < 5000; i++ {
		h.Step(0.40, 10*time.Second)
		if hum, _ := h.Active(); !hum {
			break
		}
	}
	if hum, _ := h.Active(); hum {
		t.Error("humidifier never disengaged at the target")
	}
	if h.RH() < 0.39 {
		t.Errorf("disengaged below target: RH %v", h.RH())
	}
}

func TestHumidifierEconomizerTradeoff(t *testing.T) {
	// The §2.2 trade-off quantified: free cooling with dry winter air
	// costs humidification energy that chiller-based cooling (dry-ish
	// but stable supply) does not.
	econo, err := NewHumidifier(DefaultHumidifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	mech, err := NewHumidifier(DefaultHumidifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	econoCost := runDriving(econo, 0.15, 24*time.Hour) // dry outside air
	mechCost := runDriving(mech, 0.38, 24*time.Hour)   // conditioned supply
	if econoCost <= mechCost {
		t.Errorf("dry-air economization cost %v J not above mechanical %v J", econoCost, mechCost)
	}
	if mechCost != 0 {
		t.Errorf("conditioned supply should cost nothing, got %v J", mechCost)
	}
}

func TestHumidifierClampsDrivingRH(t *testing.T) {
	h, err := NewHumidifier(DefaultHumidifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.Step(-5, time.Minute)
	h.Step(5, time.Minute)
	if h.RH() < 0 || h.RH() > 1 {
		t.Errorf("RH %v escaped [0,1]", h.RH())
	}
}
