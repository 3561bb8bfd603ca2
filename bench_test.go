// Benchmarks: one per paper figure and per quantitative claim, matching
// the experiment index in DESIGN.md. Each bench regenerates its
// figure/claim (via internal/exp) or exercises the underlying kernel at a
// measured scale. Absolute numbers are hardware-dependent; the *shape*
// assertions live in internal/exp's tests.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

// runExp runs one experiment per iteration and fails the bench on error.
func runExp(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(id, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1PowerDistribution regenerates Figure 1's tiered power
// flow: grid → UPS → PDU → racks with per-tier losses (§2.1).
func BenchmarkFig1PowerDistribution(b *testing.B) { runExp(b, "fig1") }

// BenchmarkFig2CoolingDynamics regenerates Figure 2's air-cooled room
// behaviour: slow dynamics under 15-minute CRAC control (§2.2).
func BenchmarkFig2CoolingDynamics(b *testing.B) { runExp(b, "fig2") }

// BenchmarkFig3MessengerTrace regenerates Figure 3's week of Messenger
// load: 2:1 diurnal swing, weekend dip, flash crowds (§3).
func BenchmarkFig3MessengerTrace(b *testing.B) { runExp(b, "fig3") }

// BenchmarkFig4MacroCoordination runs the Figure-4 macro-resource
// management layer end-to-end over a full facility (§3.2).
func BenchmarkFig4MacroCoordination(b *testing.B) { runExp(b, "fig4") }

// BenchmarkExpIdlePower measures the §4.3 claim: an idle server draws
// about 60 % of its peak power.
func BenchmarkExpIdlePower(b *testing.B) { runExp(b, "idle60") }

// BenchmarkExpPUEEconomizer measures the §2.2 claims: PUE close to 2 for
// chiller-only plants, large savings from air-side economizers.
func BenchmarkExpPUEEconomizer(b *testing.B) { runExp(b, "pue2") }

// BenchmarkExpAnimotoSurge replays §3's quoted 50→3500-server surge under
// elastic provisioning.
func BenchmarkExpAnimotoSurge(b *testing.B) { runExp(b, "animoto") }

// BenchmarkExpOversubscription sweeps §3.1's oversubscription ratio
// against violation probability.
func BenchmarkExpOversubscription(b *testing.B) { runExp(b, "oversub") }

// BenchmarkExpCoordinationPathology reproduces §5.1's oblivious DVFS ×
// on/off composition hazard across all five policy modes.
func BenchmarkExpCoordinationPathology(b *testing.B) { runExp(b, "pathology") }

// BenchmarkExpCRACSensitivity reproduces §5.1's CRAC-sensitivity
// migration hazard with tripping servers.
func BenchmarkExpCRACSensitivity(b *testing.B) { runExp(b, "crac") }

// BenchmarkExpConsolidation measures §3.1/§4.3 energy-aware provisioning
// against static allocation on the Figure-3 workload.
func BenchmarkExpConsolidation(b *testing.B) { runExp(b, "consolidate") }

// BenchmarkExpVMInterference measures §4.4 disk-contention interference
// and §5.2 correlation-aware co-location.
func BenchmarkExpVMInterference(b *testing.B) { runExp(b, "interfere") }

// BenchmarkExpSensorNet measures §4.5 fine-grained sensing vs coarse
// interpolation of the thermal map.
func BenchmarkExpSensorNet(b *testing.B) { runExp(b, "sensornet") }

// BenchmarkExpDVFSControl measures §4.2 control-based DVFS holding a
// response-time setpoint.
func BenchmarkExpDVFSControl(b *testing.B) { runExp(b, "dvfs") }

// BenchmarkExpTier2Availability computes §2.1's tier-2 availability from
// component reliability.
func BenchmarkExpTier2Availability(b *testing.B) { runExp(b, "tier2") }

// BenchmarkExtTiers measures §3.2 per-tier elastic scaling of a
// three-tier service (extension experiment).
func BenchmarkExtTiers(b *testing.B) { runExp(b, "tiers") }

// BenchmarkExtHeteroCMP measures §4.1 heterogeneous CMP power curves
// (extension experiment).
func BenchmarkExtHeteroCMP(b *testing.B) { runExp(b, "hetero") }

// BenchmarkExtCoreParking measures §4.3 core parking between DVFS and
// server-off (extension experiment).
func BenchmarkExtCoreParking(b *testing.B) { runExp(b, "parking") }

// BenchmarkExtDistributed compares centralized vs hierarchical MRM
// sub-layers (§3.2, extension experiment).
func BenchmarkExtDistributed(b *testing.B) { runExp(b, "distributed") }

// BenchmarkExtCapping measures the §3.1 capping safety valve over an
// oversubscribed rack (extension experiment).
func BenchmarkExtCapping(b *testing.B) { runExp(b, "capping") }

// BenchmarkExtGeoRouting measures §3.2 federation routing over a week of
// weather (extension experiment).
func BenchmarkExtGeoRouting(b *testing.B) { runExp(b, "geo") }

// BenchmarkAblateForecast compares forecaster families on the surge
// (design-choice ablation).
func BenchmarkAblateForecast(b *testing.B) { runExp(b, "ablate-forecast") }

// BenchmarkAblateLadder compares DVFS ladder depths under coordination
// (design-choice ablation).
func BenchmarkAblateLadder(b *testing.B) { runExp(b, "ablate-ladder") }

// BenchmarkAblateHysteresis compares downscale-hysteresis settings
// (design-choice ablation).
func BenchmarkAblateHysteresis(b *testing.B) { runExp(b, "ablate-hysteresis") }

// BenchmarkAblateDC compares 400V DC distribution against AC double
// conversion (design-choice ablation, after [11]).
func BenchmarkAblateDC(b *testing.B) { runExp(b, "ablate-dc") }

// BenchmarkFaultOutage runs §2.1's backup chain through a 45-minute
// utility loss, with the generator starting and with every start
// failing (fault extension).
func BenchmarkFaultOutage(b *testing.B) { runExp(b, "fault-outage") }

// BenchmarkFaultCRAC fails one of two CRAC units for six hours under
// heavy load, unmanaged and under the shedding ladder (fault extension).
func BenchmarkFaultCRAC(b *testing.B) { runExp(b, "fault-crac") }

// BenchmarkFaultSensor runs a supervised room through a sensor blackout
// and a stuck-sensor window, naive and guarded (fault extension).
func BenchmarkFaultSensor(b *testing.B) { runExp(b, "fault-sensor") }

// BenchmarkFaultRack spends the same server downtime as one whole rack
// and as dispersed single crashes behind the retry loop (fault
// extension).
func BenchmarkFaultRack(b *testing.B) { runExp(b, "fault-rack") }

// BenchmarkUsersSurge replays §3's Animoto surge as per-class user
// arrivals through admission control at three power budgets.
func BenchmarkUsersSurge(b *testing.B) { runExp(b, "users-surge") }

// BenchmarkUsersFlash replays Figure 3's Messenger week, flash crowds
// included, through admission control on a fixed fleet.
func BenchmarkUsersFlash(b *testing.B) { runExp(b, "users-flash") }

// BenchmarkUsersQmin sweeps the fair-share floor at 1.5× overload: the
// rejection-versus-degradation knob.
func BenchmarkUsersQmin(b *testing.B) { runExp(b, "users-qmin") }

// BenchmarkRetryStorm triggers a retry storm with a capacity dip under
// four client populations (metastability extension).
func BenchmarkRetryStorm(b *testing.B) { runExp(b, "retry-storm") }

// BenchmarkRetryBudget spikes demand against naive, backoff and budget
// clients with the breaker off (metastability extension).
func BenchmarkRetryBudget(b *testing.B) { runExp(b, "retry-budget") }

// BenchmarkGeoDiurnal compares home, static and weighted routing over a
// day of offset diurnals at four federated sites (§3.2 extension).
func BenchmarkGeoDiurnal(b *testing.B) { runExp(b, "geo-diurnal") }

// BenchmarkGeoBrownout drains a dipped site's share to its siblings,
// static shares against the weighted router (§3.2 extension).
func BenchmarkGeoBrownout(b *testing.B) { runExp(b, "geo-brownout") }

// BenchmarkGeoCarbon compares carbon-blind and carbon-aware weighting
// over per-site grid-intensity diurnals (§3.2 extension).
func BenchmarkGeoCarbon(b *testing.B) { runExp(b, "geo-carbon") }

// suiteIDs is the full experiment suite minus telemetry: that experiment
// is itself a wall-clock microbenchmark (ingest points/min), so timing it
// inside another benchmark — or racing it against sibling jobs — measures
// interference, not the harness.
func suiteIDs() []string {
	ids := make([]string, 0, len(exp.IDs()))
	for _, id := range exp.IDs() {
		if id != "telemetry" {
			ids = append(ids, id)
		}
	}
	return ids
}

// benchSuite runs the suite once per iteration through the harness at the
// given worker count, with two seed replications so the parallel case has
// enough independent jobs to overlap the long-pole experiments.
func benchSuite(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	ids := suiteIDs()
	for i := 0; i < b.N; i++ {
		sums, err := harness.Run(harness.Config{
			IDs:      ids,
			BaseSeed: int64(i) + 1,
			Reps:     2,
			Parallel: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(sums) != len(ids) {
			b.Fatalf("got %d summaries, want %d", len(sums), len(ids))
		}
	}
}

// BenchmarkSuiteSerial is the pre-harness baseline: every (experiment ×
// seed) job on a single worker.
func BenchmarkSuiteSerial(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel fans the same jobs over GOMAXPROCS workers; the
// ratio to BenchmarkSuiteSerial is the harness speedup on this machine.
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, runtime.GOMAXPROCS(0)) }

// BenchmarkExpTelemetryScale measures the §5.3 ingestion path directly:
// points/second into the multi-resolution store at the paper's sampling
// shape, 100 counters read in one sweep per 15 s and appended as one
// frame round per op (the full experiment run, with its wall-clock
// measurements, lives in `cmd/experiments -exp telemetry`). The reported
// points/min extrapolates to the paper's 2.4 M points/min requirement.
func BenchmarkExpTelemetryScale(b *testing.B) {
	store, err := telemetry.NewStore(telemetry.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const keys = 100
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("srv%02d/cpu", k)
	}
	fw, err := store.Frames(names)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, keys)
	for k := range row {
		row[k] = float64(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fw.Append(time.Duration(i)*15*time.Second, row); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perSec := float64(b.N*keys) / b.Elapsed().Seconds()
	b.ReportMetric(perSec*60, "points/min")
}

// BenchmarkTelemetryTrendQuery measures the multi-scale query path the
// paper's §5.3 prescribes (daily averages straight from the pyramid).
// A week of 15 s samples is ingested into a one-column frame, and the
// levels catch up on it before the timer starts.
func BenchmarkTelemetryTrendQuery(b *testing.B) {
	store, err := telemetry.NewStore(telemetry.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	fw, err := store.Frames([]string{"srv/cpu"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 7*24*60*4; i++ { // one week of 15 s samples
		if err := fw.Append(time.Duration(i)*15*time.Second, []float64{float64(i % 960)}); err != nil {
			b.Fatal(err)
		}
	}
	store.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.DailyAverages("srv/cpu"); err != nil {
			b.Fatal(err)
		}
	}
}
