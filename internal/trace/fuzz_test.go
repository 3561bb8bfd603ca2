package trace

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// clampFuzz maps an arbitrary fuzzed float into [lo, hi], treating NaN
// as lo so every input exercises the generator instead of the validator.
func clampFuzz(v, lo, hi float64) float64 {
	if math.IsNaN(v) || v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// assertSeriesPhysical fails if any sample is non-finite or negative —
// the baseline physical-law contract for every generated demand series.
func assertSeriesPhysical(t *testing.T, name string, s *Series) {
	t.Helper()
	for i, v := range s.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s[%d] = %v, want finite", name, i, v)
		}
		if v < 0 {
			t.Fatalf("%s[%d] = %v, want non-negative", name, i, v)
		}
	}
}

// FuzzGenerateMessenger drives the Figure-3 workload generator across
// the configuration space: every accepted configuration must yield
// finite, non-negative series normalized so the maximum equals the
// configured peak, with flash crowds inside the horizon.
func FuzzGenerateMessenger(f *testing.F) {
	f.Add(int64(1), uint16(7*24), uint16(1), 0.35, 0.82, 3.5, 0.02, 1400.0, 1e6)
	f.Add(int64(2), uint16(24), uint16(15), 0.1, 1.0, 1.0, 0.0, 100.0, 1000.0)
	f.Add(int64(3), uint16(1), uint16(60), 1.0, 0.01, 50.0, 1.0, 0.0, 0.0)
	f.Add(int64(-9), uint16(336), uint16(5), 0.5, 0.5, 10.0, 0.5, 1e9, 1e12)
	f.Fuzz(func(t *testing.T, seed int64, hours, stepMin uint16, night, weekend, flashMag, noiseSD, peakLogin, peakConns float64) {
		cfg := DefaultMessengerConfig()
		cfg.Duration = time.Duration(1+int(hours)%(14*24)) * time.Hour
		cfg.Step = time.Duration(1+int(stepMin)%60) * time.Minute
		cfg.NightFraction = clampFuzz(night, 0.01, 1)
		cfg.WeekendFactor = clampFuzz(weekend, 0.01, 1)
		cfg.FlashMagnitude = clampFuzz(flashMag, 1, 50)
		cfg.NoiseSD = clampFuzz(noiseSD, 0, 1)
		cfg.PeakLoginRate = clampFuzz(peakLogin, 0, 1e9)
		cfg.PeakConnections = clampFuzz(peakConns, 0, 1e12)

		m, err := GenerateMessenger(cfg, sim.NewRNG(seed))
		if err != nil {
			t.Fatalf("clamped config rejected: %v", err)
		}
		for series, peak := range map[*Series]float64{
			m.Logins:      cfg.PeakLoginRate,
			m.Connections: cfg.PeakConnections,
		} {
			assertSeriesPhysical(t, "series", series)
			if max := series.Max(); max > peak*(1+1e-9) {
				t.Fatalf("max %v exceeds configured peak %v", max, peak)
			} else if max > 0 && math.Abs(max-peak) > 1e-9*peak {
				t.Fatalf("normalized max %v != peak %v", max, peak)
			}
		}
		for _, ft := range m.FlashTimes {
			if ft < 0 || ft >= cfg.Duration {
				t.Fatalf("flash crowd at %v outside horizon %v", ft, cfg.Duration)
			}
		}
	})
}

// FuzzGenerateSurge drives the Animoto-style surge generator: output is
// always finite and non-negative, and with noise disabled it never
// exceeds the larger of the configured peak and settle levels.
func FuzzGenerateSurge(f *testing.F) {
	f.Add(int64(1), 50.0, 3500.0, 400.0, 0.03, uint16(240), uint16(10))
	f.Add(int64(2), 0.001, 0.001, 0.0, 0.0, uint16(1), uint16(120))
	f.Add(int64(5), 1.0, 1e6, 2e6, 1.0, uint16(480), uint16(30))
	f.Fuzz(func(t *testing.T, seed int64, baseline, peak, settle, noiseSD float64, hours, stepMin uint16) {
		cfg := DefaultSurgeConfig()
		cfg.Duration = time.Duration(1+int(hours)%(20*24)) * time.Hour
		cfg.Step = time.Duration(1+int(stepMin)%120) * time.Minute
		cfg.Baseline = clampFuzz(baseline, 0.001, 1e6)
		cfg.Peak = clampFuzz(peak, cfg.Baseline, 1e9)
		cfg.Settle = clampFuzz(settle, 0, 1e9)
		cfg.NoiseSD = clampFuzz(noiseSD, 0, 1)

		s, err := GenerateSurge(cfg, sim.NewRNG(seed))
		if err != nil {
			t.Fatalf("clamped config rejected: %v", err)
		}
		assertSeriesPhysical(t, "surge", s)

		// The noise multiplier is unbounded above, so the peak bound is a
		// property of the deterministic envelope only.
		quiet := cfg
		quiet.NoiseSD = 0
		q, err := GenerateSurge(quiet, sim.NewRNG(seed))
		if err != nil {
			t.Fatalf("noise-free config rejected: %v", err)
		}
		assertSeriesPhysical(t, "quiet surge", q)
		bound := math.Max(cfg.Peak, cfg.Settle)
		if max := q.Max(); max > bound*(1+1e-9) {
			t.Fatalf("noise-free surge max %v exceeds envelope %v", max, bound)
		}
		if min := q.Min(); len(q.Values) > 0 && min < math.Min(cfg.Baseline, cfg.Settle)*(1-1e-9) {
			t.Fatalf("noise-free surge min %v below floor %v", min, math.Min(cfg.Baseline, cfg.Settle))
		}
	})
}
