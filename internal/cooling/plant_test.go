package cooling

import (
	"math"
	"testing"
)

func TestPlantValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*PlantConfig)
	}{
		{"zero COP", func(c *PlantConfig) { c.COPNominal = 0 }},
		{"floor above nominal", func(c *PlantConfig) { c.COPMin = 10 }},
		{"negative slope", func(c *PlantConfig) { c.COPSlope = -1 }},
		{"negative fans", func(c *PlantConfig) { c.FanRatedW = -1 }},
		{"zero flow", func(c *PlantConfig) { c.FanFlowFraction = 0 }},
		{"negative pumps", func(c *PlantConfig) { c.PumpOverheadFrac = -1 }},
		{"econ temp bounds", func(c *PlantConfig) { c.EconoMinTempC = 30 }},
		{"econ rh bounds", func(c *PlantConfig) { c.EconoMinRH = 0.9 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultPlantConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if err := DefaultPlantConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestCOPDegradesWithOutsideTemp(t *testing.T) {
	c := DefaultPlantConfig()
	cold := c.COP(5)
	warm := c.COP(30)
	if warm >= cold {
		t.Errorf("COP at 30°C (%v) not below COP at 5°C (%v)", warm, cold)
	}
	// Floored on the hottest days.
	if got := c.COP(100); got != c.COPMin {
		t.Errorf("COP(100) = %v, want floor %v", got, c.COPMin)
	}
	// Capped at nominal on the coldest.
	if got := c.COP(-40); got != c.COPNominal {
		t.Errorf("COP(-40) = %v, want nominal %v", got, c.COPNominal)
	}
}

func TestPlantPowerWithoutEconomizer(t *testing.T) {
	c := DefaultPlantConfig()
	p, err := c.Power(100_000, c.COPRefC, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	wantComp := 100_000 / c.COPNominal
	if math.Abs(p.CompressorW-wantComp) > 1e-9 {
		t.Errorf("compressor = %v, want %v", p.CompressorW, wantComp)
	}
	if math.Abs(p.PumpW-wantComp*c.PumpOverheadFrac) > 1e-9 {
		t.Errorf("pumps = %v", p.PumpW)
	}
	if p.FanW != c.FanRatedW {
		t.Errorf("fans = %v, want rated %v at full flow", p.FanW, c.FanRatedW)
	}
	if p.EconomizerActive {
		t.Error("economizer active while disabled")
	}
	if math.Abs(p.TotalW()-(p.CompressorW+p.PumpW+p.FanW)) > 1e-9 {
		t.Error("TotalW inconsistent")
	}
	if _, err := c.Power(-1, 20, 0.4); err == nil {
		t.Error("negative load should error")
	}
}

func TestFanCubeLaw(t *testing.T) {
	c := DefaultPlantConfig()
	c.FanFlowFraction = 0.5
	p, err := c.Power(0, 20, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.FanW-c.FanRatedW*0.125) > 1e-9 {
		t.Errorf("half-flow fan power = %v, want %v", p.FanW, c.FanRatedW*0.125)
	}
}

func TestEconomizerBypassesChiller(t *testing.T) {
	c := DefaultPlantConfig()
	c.Economizer = true
	// Cool, dry-enough outside air: free cooling.
	p, err := c.Power(100_000, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !p.EconomizerActive {
		t.Fatal("economizer not active in favourable weather")
	}
	if p.CompressorW != 0 || p.PumpW != 0 {
		t.Errorf("chiller running during economization: comp=%v pump=%v", p.CompressorW, p.PumpW)
	}
	if p.FanW == 0 {
		t.Error("fans must still run during economization")
	}
	// Too hot outside: back to the chiller.
	p, err = c.Power(100_000, 30, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.EconomizerActive || p.CompressorW == 0 {
		t.Error("economizer active in hot weather")
	}
	// Too humid outside: back to the chiller (paper: humidity changes
	// "bringing additional challenges to cooling control").
	p, err = c.Power(100_000, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if p.EconomizerActive {
		t.Error("economizer active in saturating humidity")
	}
	// Too cold outside is still usable (mixing keeps it free).
	if c.EconomizerUsable(-20, 0.5) {
		t.Error("below minimum temperature should not be directly usable")
	}
}

func TestPUE(t *testing.T) {
	// Paper §2.2: "most data centers have [PUE] close to 2" under
	// conservative chiller-only operation.
	legacy := PlantConfig{
		COPNominal:       2.2,
		COPRefC:          15,
		COPSlope:         0.05,
		COPMin:           1.8,
		FanRatedW:        18_000, // sized for a 100 kW room
		FanFlowFraction:  1,
		PumpOverheadFrac: 0.15,
		EconoMinTempC:    -10,
		EconoMaxTempC:    18,
		EconoMinRH:       0.2,
		EconoMaxRH:       0.8,
	}
	const itW = 100_000
	p, err := legacy.Power(itW*1.05, 25, 0.4) // overcooling margin
	if err != nil {
		t.Fatal(err)
	}
	distLoss := itW * 0.14 // lightly-loaded double-conversion UPS path
	misc := itW * 0.06     // lighting, office, security
	pue, err := PUE(itW, distLoss, p.TotalW()+misc)
	if err != nil {
		t.Fatal(err)
	}
	if pue < 1.7 || pue > 2.2 {
		t.Errorf("legacy-plant PUE = %.2f, want close to 2", pue)
	}

	if _, err := PUE(0, 1, 1); err == nil {
		t.Error("zero IT power should error")
	}
	if _, err := PUE(100, -1, 0); err == nil {
		t.Error("negative overhead should error")
	}
	perfect, err := PUE(100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if perfect != 1 {
		t.Errorf("overhead-free PUE = %v, want 1", perfect)
	}
}
