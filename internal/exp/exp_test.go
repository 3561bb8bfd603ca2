package exp

import (
	"slices"
	"strings"
	"testing"
	"time"
)

const testSeed = 1

func run(t *testing.T, id string) Result {
	t.Helper()
	res, err := Run(id, testSeed)
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if res.ID() != id {
		t.Fatalf("result ID = %q, want %q", res.ID(), id)
	}
	if rep := res.Report(); !strings.Contains(rep, id) {
		t.Errorf("report does not mention its id:\n%s", rep)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablate-dc", "ablate-forecast", "ablate-hysteresis", "ablate-ladder",
		"animoto", "capping", "consolidate", "crac", "distributed", "dvfs",
		"fault-crac", "fault-outage", "fault-rack", "fault-sensor", "fig1",
		"fig2", "fig3", "fig4", "geo", "geo-brownout", "geo-carbon",
		"geo-diurnal", "hetero", "idle60", "interfere", "oversub",
		"parking", "pathology", "pue2", "retry-budget", "retry-storm",
		"sensornet", "telemetry", "tier2",
		"tiers", "users-flash", "users-qmin", "users-surge",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	if _, err := Run("nonsense", 1); err == nil {
		t.Error("unknown id should error")
	}
}

// TestKnobReaders holds FleetScaleIDs and FederationSitesIDs, which
// cmd/experiments checks -scale and -sites against, to the code: every
// experiment runs once, and its Env records whether it read each knob.
func TestKnobReaders(t *testing.T) {
	for name, ids := range map[string][]string{"FleetScaleIDs": FleetScaleIDs(), "FederationSitesIDs": FederationSitesIDs()} {
		if !slices.IsSorted(ids) {
			t.Errorf("%s %v is not sorted", name, ids)
		}
		for _, id := range ids {
			if !Known(id) {
				t.Errorf("%s names unknown experiment %q", name, id)
			}
		}
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			env := NewEnv(testSeed)
			defer env.Close()
			env.DisarmInvariants()
			if _, err := RunEnv(id, env); err != nil {
				t.Fatal(err)
			}
			if want := slices.Contains(FleetScaleIDs(), id); env.readScale != want {
				t.Errorf("reads FleetScale: %v; FleetScaleIDs lists it: %v", env.readScale, want)
			}
			if want := slices.Contains(FederationSitesIDs(), id); env.readSites != want {
				t.Errorf("reads FederationSites: %v; FederationSitesIDs lists it: %v", env.readSites, want)
			}
		})
	}
}

func TestFig1(t *testing.T) {
	res := run(t, "fig1").(Fig1Result)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Facility input grows with utilization; efficiency improves.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].FacilityInKW <= res.Rows[i-1].FacilityInKW {
			t.Error("facility power not increasing with utilization")
		}
	}
	if res.Rows[1].DistEfficiency >= res.Rows[4].DistEfficiency {
		t.Errorf("distribution efficiency at 25%% (%v) not below 100%% (%v) — fixed losses should amortize",
			res.Rows[1].DistEfficiency, res.Rows[4].DistEfficiency)
	}
	// Full fleet at peak = 480 servers × 300 W = 144 kW critical.
	if res.Rows[4].CriticalKW < 140 || res.Rows[4].CriticalKW > 148 {
		t.Errorf("full-load critical power = %v kW, want ~144", res.Rows[4].CriticalKW)
	}
	if res.HostableServers <= 0 {
		t.Error("no hostable servers computed")
	}
	// With 1.25x oversubscription and a fleet sized for 1.0x, some
	// sweep point must overload.
	if res.OverloadAt < 0 {
		t.Error("oversubscribed tree never overloaded in the sweep")
	}
}

func TestFig2(t *testing.T) {
	res := run(t, "fig2").(Fig2Result)
	// Slow dynamics: settling takes at least several minutes.
	if res.SettleAfterStep < 5*time.Minute {
		t.Errorf("settle time %v too fast for the paper's slow-dynamics claim", res.SettleAfterStep)
	}
	if res.CRACAdjustments == 0 {
		t.Error("CRACs never adjusted")
	}
	if res.MaxInletC <= res.MinInletC {
		t.Error("inlet trace is flat")
	}
	if res.InletTrace.Len() != 12*60 {
		t.Errorf("trace samples = %d, want 720", res.InletTrace.Len())
	}
}

func TestFig3(t *testing.T) {
	res := run(t, "fig3").(Fig3Result)
	if res.AfternoonNightRatio < 1.6 || res.AfternoonNightRatio > 2.6 {
		t.Errorf("afternoon/night ratio = %v, want ~2", res.AfternoonNightRatio)
	}
	if res.WeekdayWeekendRatio <= 1 {
		t.Errorf("weekday/weekend ratio = %v, want > 1", res.WeekdayWeekendRatio)
	}
	if res.PeakConnections < 0.99e6 || res.PeakConnections > 1.01e6 {
		t.Errorf("peak connections = %v, want ~1e6", res.PeakConnections)
	}
	if res.PeakLoginRate < 1399 || res.PeakLoginRate > 1401 {
		t.Errorf("peak login rate = %v, want 1400", res.PeakLoginRate)
	}
}

func TestFig4(t *testing.T) {
	res := run(t, "fig4").(Fig4Result)
	if res.EnergyKWh <= 0 {
		t.Error("no energy accounted")
	}
	if res.MeanPUE < 1.05 || res.MeanPUE > 2.5 {
		t.Errorf("mean PUE = %v implausible", res.MeanPUE)
	}
	if res.SLAViolationRate > 0.1 {
		t.Errorf("coordinated run violated SLA %.1f%% of the time", res.SLAViolationRate*100)
	}
	if res.ThermalTrips != 0 {
		t.Errorf("coordinated run took %d thermal trips", res.ThermalTrips)
	}
	if res.TelemetryKeys == 0 {
		t.Error("no telemetry collected")
	}
	if res.MeanActive <= 0 || res.MeanActive >= 40 {
		t.Errorf("mean active = %v, want elastic operation within the 40-server fleet", res.MeanActive)
	}
}

func TestIdle60(t *testing.T) {
	res := run(t, "idle60").(Idle60Result)
	if res.IdleFraction < 0.55 || res.IdleFraction > 0.65 {
		t.Errorf("idle fraction = %v, want ~0.60", res.IdleFraction)
	}
	// 24 h at 180 W = 4.32 kWh; one boot cycle is tiny by comparison.
	if res.IdleDayKWh < 4 || res.IdleDayKWh > 5 {
		t.Errorf("idle day = %v kWh, want ~4.3", res.IdleDayKWh)
	}
	if res.OffDayKWh > res.IdleDayKWh/10 {
		t.Errorf("off day %v kWh not far below idle day %v kWh", res.OffDayKWh, res.IdleDayKWh)
	}
}

func TestPUE2(t *testing.T) {
	res := run(t, "pue2").(PUE2Result)
	if res.LegacyPUE < 1.7 || res.LegacyPUE > 2.2 {
		t.Errorf("legacy PUE = %v, want close to 2", res.LegacyPUE)
	}
	if res.EconomizerPUE >= res.LegacyPUE {
		t.Errorf("economizer PUE %v not below legacy %v", res.EconomizerPUE, res.LegacyPUE)
	}
	if res.EconoHours < 0.2 {
		t.Errorf("free-cooling hours = %v, want meaningful fraction in a temperate climate", res.EconoHours)
	}
	if res.CoolingSaving <= 0.1 {
		t.Errorf("cooling saving = %v, want substantial", res.CoolingSaving)
	}
}

func TestAnimoto(t *testing.T) {
	res := run(t, "animoto").(AnimotoResult)
	if res.PeakDemand < 3000 || res.PeakDemand > 4000 {
		t.Errorf("peak demand = %v, want ~3500", res.PeakDemand)
	}
	if res.PeakFleet < 3000 {
		t.Errorf("elastic fleet peaked at %d, never scaled out", res.PeakFleet)
	}
	if res.ElasticSaving < 0.3 {
		t.Errorf("elastic saving vs static-at-peak = %v, want large", res.ElasticSaving)
	}
	if res.ElasticDropped > 0.08 {
		t.Errorf("elastic unmet demand = %v, want small", res.ElasticDropped)
	}
	if res.StaticBaseDrop < 0.5 {
		t.Errorf("baseline-sized static dropped only %v — surge should overwhelm it", res.StaticBaseDrop)
	}
}

func TestOversubExp(t *testing.T) {
	res := run(t, "oversub").(OversubResult)
	// Violation grows with ratio.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Violation < res.Rows[i-1].Violation-1e-12 {
			t.Error("violation not monotone in oversubscription ratio")
		}
	}
	if res.Rows[0].Violation != 0 {
		t.Errorf("ratio 1.0 violation = %v, want 0", res.Rows[0].Violation)
	}
	if res.SafeRatio <= 1.1 {
		t.Errorf("safe ratio = %v, want meaningfully above 1", res.SafeRatio)
	}
	if res.OversubUtil <= res.StaticUtil {
		t.Error("oversubscription did not improve utilization")
	}
}

func TestPathologyExp(t *testing.T) {
	res := run(t, "pathology").(PathologyResult)
	byMode := map[string]PathologyRow{}
	for _, row := range res.Rows {
		byMode[row.Mode.String()] = row
	}
	obl := byMode["oblivious"]
	if obl.EnergyKWh <= byMode["onoff-only"].EnergyKWh {
		t.Errorf("oblivious %.1f kWh not above onoff-only %.1f", obl.EnergyKWh, byMode["onoff-only"].EnergyKWh)
	}
	if obl.EnergyKWh <= byMode["dvfs-only"].EnergyKWh {
		t.Errorf("oblivious %.1f kWh not above dvfs-only %.1f", obl.EnergyKWh, byMode["dvfs-only"].EnergyKWh)
	}
	coord := byMode["coordinated"]
	for name, row := range byMode {
		if coord.EnergyKWh > row.EnergyKWh+1e-9 {
			t.Errorf("coordinated %.1f kWh above %s %.1f", coord.EnergyKWh, name, row.EnergyKWh)
		}
	}
	if byMode["always-on"].EnergyKWh <= obl.EnergyKWh {
		t.Error("always-on should be the most expensive")
	}
}

func TestCRACExp(t *testing.T) {
	res := run(t, "crac").(CRACResult)
	if res.NaiveTrips == 0 {
		t.Error("naive migration produced no thermal trips — pathology not reproduced")
	}
	if res.AwareTrips != 0 {
		t.Errorf("sensitivity-aware operation took %d thermal trips", res.AwareTrips)
	}
	if res.NaiveMaxInletB <= res.AwareMaxInlet {
		t.Errorf("naive zone-B peak %v not above aware peak %v", res.NaiveMaxInletB, res.AwareMaxInlet)
	}
	if res.SupplyRiseC <= 0 {
		t.Errorf("CRAC did not relax after its sensitive zone emptied (rise %v)", res.SupplyRiseC)
	}
}

func TestConsolidateExp(t *testing.T) {
	res := run(t, "consolidate").(ConsolidateResult)
	if res.Saving < 0.2 {
		t.Errorf("provisioning saving = %v, want >= 20%% (ref [18] reports ~30%%)", res.Saving)
	}
	if res.OverloadFrac > 0.02 {
		t.Errorf("overload fraction = %v, want rare", res.OverloadFrac)
	}
	if res.MeanFleet >= float64(res.StaticServers) {
		t.Error("elastic fleet not smaller than static on average")
	}
}

func TestInterfereExp(t *testing.T) {
	res := run(t, "interfere").(InterfereResult)
	if res.NaiveIOPS >= res.AwareIOPS {
		t.Errorf("naive IOPS %v not below interference-aware %v", res.NaiveIOPS, res.AwareIOPS)
	}
	if res.SmartWorstPeak >= res.NaiveWorstPeak {
		t.Errorf("correlation-aware worst peak %v not below naive %v", res.SmartWorstPeak, res.NaiveWorstPeak)
	}
	if res.SmartCapFrac >= res.NaiveCapFrac {
		t.Errorf("correlation-aware cap time %v not below naive %v", res.SmartCapFrac, res.NaiveCapFrac)
	}
}

func TestTelemetryExp(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock heavy")
	}
	res := run(t, "telemetry").(TelemetryResult)
	// Even a laptop should beat the paper's 2.4M points/min by a wide
	// margin; require at least meeting it.
	if res.PointsPerMinute < res.PaperPointsPerMinute {
		t.Errorf("ingest %.3g points/min below paper requirement %.3g",
			res.PointsPerMinute, res.PaperPointsPerMinute)
	}
	if res.QuerySpeedup < 5 {
		t.Errorf("pyramid speedup = %vx, want substantial", res.QuerySpeedup)
	}
	if res.StorageReduction < 3 {
		t.Errorf("storage reduction = %vx, want substantial", res.StorageReduction)
	}
	if res.TrendLen != 1 {
		t.Errorf("daily trend length = %d, want 1 (one simulated day)", res.TrendLen)
	}
}

func TestSensorNetExp(t *testing.T) {
	res := run(t, "sensornet").(SensorNetResult)
	if res.DenseRMSE >= res.SparseRMSE {
		t.Errorf("dense RMSE %v not below sparse %v", res.DenseRMSE, res.SparseRMSE)
	}
	if res.Improvement < 2 {
		t.Errorf("improvement = %vx, want at least 2x", res.Improvement)
	}
	if res.DeliveryRate < 0.3 || res.DeliveryRate > 1 {
		t.Errorf("delivery rate = %v implausible", res.DeliveryRate)
	}
	if res.LifetimeRnds <= 0 {
		t.Error("no lifetime measured")
	}
}

func TestDVFSExp(t *testing.T) {
	res := run(t, "dvfs").(DVFSResult)
	if res.EnergySaving <= 0.01 {
		t.Errorf("feedback DVFS saved %v, want positive", res.EnergySaving)
	}
	if res.ViolationRate > 0.05 {
		t.Errorf("feedback DVFS violated SLA %v of the time", res.ViolationRate)
	}
	if res.MeanPState <= 0 {
		t.Error("policy never left the fastest state")
	}
}

func TestTier2Exp(t *testing.T) {
	res := run(t, "tier2").(Tier2Result)
	if res.Tier.String() != "tier-2" {
		t.Errorf("classified %v, want tier-2", res.Tier)
	}
	if res.Availability < 0.99741 || res.Availability >= 0.99982 {
		t.Errorf("availability = %v outside the tier-2 band", res.Availability)
	}
	if res.Downtime < 2*time.Hour || res.Downtime > 23*time.Hour {
		t.Errorf("downtime = %v implausible for tier-2", res.Downtime)
	}
	// Failure injection agrees with the analytic structure function.
	ua, us := 1-res.Availability, 1-res.Simulated
	if us < ua*0.7 || us > ua*1.3 {
		t.Errorf("simulated unavailability %.5f disagrees with analytic %.5f", us, ua)
	}
}

func TestDeterminism(t *testing.T) {
	// Same seed, same report, for a virtual-time experiment.
	a, err := Run("pathology", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("pathology", 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Error("same seed produced different pathology reports")
	}
}
