package server

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// nonFiniteConfigs lists configs that only a NaN- or infinity-blind
// Validate would accept. Every check must be written so that a NaN fails
// it: a block derives its constants once, so one bad config would poison
// every slot built from it.
func nonFiniteConfigs() map[string]func(*Config) {
	nan, inf := math.NaN(), math.Inf(1)
	return map[string]func(*Config){
		"NaN peak power":         func(c *Config) { c.PeakPower = nan },
		"+Inf peak power":        func(c *Config) { c.PeakPower = inf },
		"NaN idle fraction":      func(c *Config) { c.IdleFraction = nan },
		"NaN capacity":           func(c *Config) { c.Capacity = nan },
		"+Inf capacity":          func(c *Config) { c.Capacity = inf },
		"NaN boot energy":        func(c *Config) { c.BootEnergy = nan },
		"NaN park savings":       func(c *Config) { c.ParkSavings = nan },
		"NaN trip temperature":   func(c *Config) { c.TripTempC = nan },
		"NaN second p-state":     func(c *Config) { c.PStates[1].Freq = nan },
		"NaN first dyn factor":   func(c *Config) { c.PStates[0].DynFactor = nan },
		"NaN last dyn factor":    func(c *Config) { c.PStates[len(c.PStates)-1].DynFactor = nan },
		"NaN curve utilization":  func(c *Config) { c.PowerCurve = []CurvePoint{{0, 0}, {nan, 0.15}, {1, 1}} },
		"NaN curve dyn fraction": func(c *Config) { c.PowerCurve = []CurvePoint{{0, 0}, {0.4, nan}, {1, 1}} },
	}
}

// TestConfigValidationRejectsNonFinite: every non-finite case above is
// rejected, by New and NewBlock alike.
func TestConfigValidationRejectsNonFinite(t *testing.T) {
	for name, mutate := range nonFiniteConfigs() {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", name)
		}
		if _, err := NewBlock(cfg, 4); err == nil {
			t.Errorf("%s: NewBlock accepted the config", name)
		}
	}
}

// TestConfigValidationMessagesForFiniteInputs pins the message of every
// finite rejection, which the non-finite checks must leave alone.
func TestConfigValidationMessagesForFiniteInputs(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.PeakPower = -1 }, "server: peak power -1 must be positive"},
		{func(c *Config) { c.IdleFraction = 1 }, "server: idle fraction 1 out of [0,1)"},
		{func(c *Config) { c.PStates = nil }, "server: at least one P-state required"},
		{func(c *Config) { c.Capacity = 0 }, "server: capacity 0 must be positive"},
		{func(c *Config) { c.ShutdownDelay = -time.Second }, "server: negative transition delay"},
		{func(c *Config) { c.BootEnergy = -1 }, "server: negative boot energy"},
		{func(c *Config) { c.Cores = 0 }, "server: cores 0 must be positive"},
		{func(c *Config) { c.ParkSavings = 2 }, "server: park savings 2 out of [0,1]"},
		{func(c *Config) { c.PStates[1].Freq = 1.5 }, "server: p-state 1 frequency 1.5 out of (0,1]"},
		{func(c *Config) { c.PStates[2].DynFactor = 0 }, "server: p-state 2 dyn factor 0 out of (0,1]"},
		{func(c *Config) { c.PStates[0].Freq = 0.5 }, "server: first p-state must be nominal frequency, got 0.5"},
		{func(c *Config) { c.PowerCurve = []CurvePoint{{0, 0}, {0.4, 0.5}, {0.4, 0.6}, {1, 1}} },
			"server: power curve utilization not increasing at 2"},
		{func(c *Config) { c.PowerCurve = []CurvePoint{{0, 0}, {0.4, 0.5}, {0.6, 0.4}, {1, 1}} },
			"server: power curve fraction decreasing at 2"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("Validate = %v, want %q", err, tc.want)
		}
	}
}

// FuzzServerConfig drives a server built from any config Validate
// accepts through boots, load, DVFS, throttling, parking, inlet readings
// and crashes. Its draw must stay finite and within [0, peak·(1+1e-9)] —
// the invariant checker's server-power-bounds tolerance — and its
// available capacity within [0, Capacity].
func FuzzServerConfig(f *testing.F) {
	d := DefaultConfig()
	f.Add(d.PeakPower, d.IdleFraction, d.Capacity, d.BootEnergy, d.ParkSavings, d.TripTempC,
		0.8, 0.5, 0.4, 0.15, uint8(8), false, 0.6, []byte{0, 0x11, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76})
	f.Add(d.PeakPower, d.IdleFraction, d.Capacity, d.BootEnergy, d.ParkSavings, d.TripTempC,
		0.8, 0.5, 0.4, 0.15, uint8(8), true, math.NaN(), []byte{0, 0x91, 0x61, 0x11, 0xa5, 0x01})
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ peak, idle, capacity, bootJ, park, trip, freq1, dyn1, curveU, curveF float64 }{
		{nan, 0.6, 1000, 2e4, 0.25, 38, 0.8, 0.5, 0.4, 0.15},
		{inf, 0.6, 1000, 2e4, 0.25, 38, 0.8, 0.5, 0.4, 0.15},
		{300, nan, 1000, 2e4, 0.25, 38, 0.8, 0.5, 0.4, 0.15},
		{300, 0.6, nan, 2e4, 0.25, 38, 0.8, 0.5, 0.4, 0.15},
		{300, 0.6, inf, 2e4, 0.25, 38, 0.8, 0.5, 0.4, 0.15},
		{300, 0.6, 1000, nan, 0.25, 38, 0.8, 0.5, 0.4, 0.15},
		{300, 0.6, 1000, 2e4, nan, 38, 0.8, 0.5, 0.4, 0.15},
		{300, 0.6, 1000, 2e4, 0.25, nan, 0.8, 0.5, 0.4, 0.15},
		{300, 0.6, 1000, 2e4, 0.25, 38, nan, 0.5, 0.4, 0.15},
		{300, 0.6, 1000, 2e4, 0.25, 38, 0.8, nan, 0.4, 0.15},
		{300, 0.6, 1000, 2e4, 0.25, 38, 0.8, 0.5, nan, 0.15},
		{300, 0.6, 1000, 2e4, 0.25, 38, 0.8, 0.5, 0.4, nan},
	} {
		f.Add(c.peak, c.idle, c.capacity, c.bootJ, c.park, c.trip, c.freq1, c.dyn1, c.curveU, c.curveF,
			uint8(8), true, 0.5, []byte{0, 0x11, 0x21, 0x32})
	}
	f.Fuzz(func(t *testing.T, peak, idle, capacity, bootJ, park, trip, freq1, dyn1, curveU, curveF float64,
		cores uint8, curve bool, u float64, ops []byte) {
		cfg := DefaultConfig()
		cfg.PeakPower, cfg.IdleFraction, cfg.Capacity = peak, idle, capacity
		cfg.BootEnergy, cfg.ParkSavings, cfg.TripTempC = bootJ, park, trip
		cfg.Cores = int(cores)
		cfg.PStates = []PState{{Freq: 1, DynFactor: 1}, {Freq: freq1, DynFactor: dyn1}}
		if curve {
			cfg.PowerCurve = []CurvePoint{{0, 0}, {curveU, curveF}, {1, 1}}
		}
		s, err := New(cfg)
		if err != nil {
			return
		}
		e := sim.NewEngine(1)
		check := func(op string) {
			if p := s.Power(); math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > cfg.PeakPower*(1+1e-9) {
				t.Fatalf("after %s: power %v W outside [0, %v W]", op, p, cfg.PeakPower)
			}
			if c := s.AvailableCapacity(); !(c >= 0 && c <= cfg.Capacity) {
				t.Fatalf("after %s: available capacity %v outside [0, %v]", op, c, cfg.Capacity)
			}
		}
		check("construction")
		now := time.Duration(0)
		for _, b := range ops {
			now += time.Duration(b>>4+1) * 10 * time.Second
			if err := e.Run(now); err != nil {
				t.Fatal(err)
			}
			switch b % 8 {
			case 0:
				s.PowerOn(e)
				check("PowerOn")
			case 1:
				s.SetUtilization(now, u*float64(b>>4)/8)
				check("SetUtilization")
			case 2:
				_ = s.SetPState(now, int(b>>4)%len(cfg.PStates))
				check("SetPState")
			case 3:
				_ = s.SetThrottle(now, float64(b>>4+1)/16)
				check("SetThrottle")
			case 4:
				_ = s.ParkCores(now, int(b>>4)%cfg.Cores)
				check("ParkCores")
			case 5:
				s.ObserveInlet(now, cfg.TripTempC+float64(b>>4)-8)
				check("ObserveInlet")
			case 6:
				s.Crash(now)
				check("Crash")
			case 7:
				s.PowerOff(e)
				check("PowerOff")
			}
		}
	})
}
