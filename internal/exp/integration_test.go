package exp

// Cross-package integration tests: pipelines that span several substrates
// the way a production deployment would.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestAnomalyDetectionFindsFlashCrowds closes the loop between the
// workload generator and the telemetry store: ingest the Figure-3 login
// series and check that the §5.3 anomaly query surfaces the injected
// flash crowds (and nothing drowning them out).
func TestAnomalyDetectionFindsFlashCrowds(t *testing.T) {
	cfg := trace.DefaultMessengerConfig()
	cfg.FlashCrowds = 4
	cfg.FlashMagnitude = 4
	m, err := trace.GenerateMessenger(cfg, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.FlashTimes) == 0 {
		t.Skip("no flash crowds drawn for this seed")
	}
	store, err := telemetry.NewStore(telemetry.Config{RawRetention: 0})
	if err != nil {
		t.Fatal(err)
	}
	logins, err := store.Frames([]string{"logins"})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Logins.Values {
		if err := logins.Append(time.Duration(i)*time.Minute, []float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	anomalies, err := store.Anomalies("logins", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(anomalies) == 0 {
		t.Fatal("no anomalies detected despite injected flash crowds")
	}
	// Every injected flash crowd should have an anomaly within a few
	// minutes of its onset.
	for _, ft := range m.FlashTimes {
		found := false
		for _, a := range anomalies {
			if a.At >= ft-time.Minute && a.At <= ft+10*time.Minute {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("flash crowd at %v not detected", ft)
		}
	}
	// Anomalies should be concentrated near flash crowds, not uniform:
	// most flagged minutes fall within 15 minutes of some flash.
	near := 0
	for _, a := range anomalies {
		for _, ft := range m.FlashTimes {
			if a.At >= ft-time.Minute && a.At <= ft+15*time.Minute {
				near++
				break
			}
		}
	}
	if frac := float64(near) / float64(len(anomalies)); frac < 0.7 {
		t.Errorf("only %.0f%% of anomalies near flash crowds (%d/%d) — detector too noisy",
			frac*100, near, len(anomalies))
	}
}

// TestTelemetryCorrelationSeparatesBalancedServers checks the §5.3
// load-balancer query end to end: two servers behind a balancer share the
// diurnal trend; after detrending, the residuals of a round-robin pair
// correlate positively while a failover pair (one takes what the other
// drops) correlates negatively.
func TestTelemetryCorrelationSeparatesBalancedServers(t *testing.T) {
	store, err := telemetry.NewStore(telemetry.Config{RawRetention: 0})
	if err != nil {
		t.Fatal(err)
	}
	// The four servers are sampled together, one frame round per minute.
	fw, err := store.Frames([]string{"rr-a", "rr-b", "fo-a", "fo-b"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultDiurnalConfig()
	cfg.Duration = 48 * time.Hour
	cfg.NoiseSD = 0.08
	cfg.BurstRate = 0
	total, err := trace.GenerateDiurnal(cfg, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(6)
	round := make([]float64, 4)
	for i, v := range total.Values {
		// Round-robin pair: each takes half plus small independent noise.
		round[0] = v/2 + rng.Normal(0, 0.002)
		round[1] = v/2 + rng.Normal(0, 0.002)
		// Failover pair: a jittery split where one's gain is the other's
		// loss.
		split := 0.5 + rng.Normal(0, 0.1)
		round[2] = v * split
		round[3] = v * (1 - split)
		if err := fw.Append(time.Duration(i)*time.Minute, round); err != nil {
			t.Fatal(err)
		}
	}
	rr, err := store.CorrelateDetrended("rr-a", "rr-b", telemetry.ResMinute, 61)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := store.CorrelateDetrended("fo-a", "fo-b", telemetry.ResMinute, 61)
	if err != nil {
		t.Fatal(err)
	}
	if rr <= 0.5 {
		t.Errorf("round-robin residual correlation = %v, want strongly positive", rr)
	}
	if fo >= -0.5 {
		t.Errorf("failover residual correlation = %v, want strongly negative", fo)
	}
}

// TestDataCenterTelemetryFeedsQueries drives the fig4 facility for a few
// hours and runs §5.3 queries against what it collected — the monitoring
// half of the Figure-4 loop.
func TestDataCenterTelemetryFeedsQueries(t *testing.T) {
	res, err := Run("fig4", 2)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(Fig4Result)
	if r.TelemetryKeys < 10 {
		t.Fatalf("too few telemetry keys: %d", r.TelemetryKeys)
	}
}

// TestSeedSweepStability guards against seed-specific tuning: the core
// shape claims must hold across several seeds, not just the default.
func TestSeedSweepStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(2); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res, err := Run("pathology", seed)
			if err != nil {
				t.Fatal(err)
			}
			rows := res.(PathologyResult).Rows
			byMode := map[string]PathologyRow{}
			for _, row := range rows {
				byMode[row.Mode.String()] = row
			}
			if byMode["oblivious"].EnergyKWh <= byMode["dvfs-only"].EnergyKWh {
				t.Errorf("seed %d: oblivious not above dvfs-only", seed)
			}
			if byMode["coordinated"].EnergyKWh > byMode["oblivious"].EnergyKWh {
				t.Errorf("seed %d: coordinated above oblivious", seed)
			}

			f3, err := Run("fig3", seed)
			if err != nil {
				t.Fatal(err)
			}
			ratio := f3.(Fig3Result).AfternoonNightRatio
			if ratio < 1.5 || ratio > 2.8 {
				t.Errorf("seed %d: afternoon/night ratio %v out of band", seed, ratio)
			}

			cr, err := Run("crac", seed)
			if err != nil {
				t.Fatal(err)
			}
			c := cr.(CRACResult)
			if c.NaiveTrips == 0 || c.AwareTrips != 0 {
				t.Errorf("seed %d: crac trips naive=%d aware=%d", seed, c.NaiveTrips, c.AwareTrips)
			}
		})
	}
}
