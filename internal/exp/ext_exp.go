package exp

// Extension experiments: beyond the paper's figures and explicit claims,
// these exercise the research directions it sketches (§3.2 geo-routing,
// §3.1 capping as the oversubscription safety valve) and ablate the
// design choices DESIGN.md calls out (forecaster family, DVFS ladder
// depth, downscale hysteresis).

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/onoff"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// capping — power capping keeps oversubscription safe (§3.1, §5.2)
// ---------------------------------------------------------------------------

// CappingResult compares an oversubscribed rack with and without cap
// enforcement.
type CappingResult struct {
	CapW               float64
	UnprotectedOverCap float64 // fraction of decisions over cap
	ProtectedOverCap   float64
	ThroughputKept     float64 // delivered/demanded work under enforcement
	ThrottleEvents     int
}

// ID implements Result.
func (CappingResult) ID() string { return "capping" }

// Report implements Result.
func (r CappingResult) Report() string {
	var b strings.Builder
	b.WriteString(header("capping", "power capping as the oversubscription safety valve (§3.1)"))
	fmt.Fprintf(&b, "rack cap %.0f W over a 3000 W worst-case fleet (oversubscribed)\n", r.CapW)
	fmt.Fprintf(&b, "time over cap: unprotected %.1f%%, with enforcement %.1f%%\n",
		r.UnprotectedOverCap*100, r.ProtectedOverCap*100)
	fmt.Fprintf(&b, "throughput kept under enforcement: %.1f%% (%d throttle events)\n",
		r.ThroughputKept*100, r.ThrottleEvents)
	return b.String()
}

// RunCapping drives a diurnal load through an oversubscribed rack.
func RunCapping(env *Env) (Result, error) {
	seed := env.Seed
	const n = 10
	// Cap at 2800 W against a 3000 W worst case: the oversubscription bet
	// is that simultaneous full utilization is rare — here a two-hour
	// afternoon burst.
	const capW = 2800.0
	srvCfg := server.DefaultConfig()

	runOnce := func(protect bool) (overFrac, kept float64, throttles int, err error) {
		e := env.NewEngine(seed)
		rack, err := power.NewNode("rack", power.KindRack, 10_000, power.DefaultRackLoss)
		if err != nil {
			return 0, 0, 0, err
		}
		fleet, err := core.NewFleet(e, srvCfg, n)
		if err != nil {
			return 0, 0, 0, err
		}
		for _, s := range fleet.Servers() {
			s := s
			rack.AddLoad(func() float64 { return s.Power() })
		}
		rack.SetCap(capW)
		fleet.SetTarget(n)
		if err := e.Run(srvCfg.BootDelay + time.Second); err != nil {
			return 0, 0, 0, err
		}
		var enf *core.CapEnforcer
		if protect {
			enf, err = core.NewCapEnforcer([]*power.Node{rack},
				[][]*server.Server{fleet.Servers()})
			if err != nil {
				return 0, 0, 0, err
			}
		}
		var over, ticks int
		var demanded, delivered float64
		e.Every(time.Minute, func(eng *sim.Engine) {
			now := eng.Now()
			h := math.Mod(now.Hours(), 24)
			frac := 0.35 + 0.45*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
			if h >= 13 && h < 15 {
				frac += 0.17 // afternoon burst pushes past the cap
			}
			offered := frac * n * srvCfg.Capacity
			dropped, _ := fleet.Dispatch(now, offered)
			demanded += offered
			delivered += offered - dropped
			if rack.Evaluate().OutW > capW {
				over++
			}
			ticks++
			if enf != nil {
				enf.Enforce(now)
			}
		})
		if err := e.Run(srvCfg.BootDelay + time.Second + 24*time.Hour); err != nil {
			return 0, 0, 0, err
		}
		if enf != nil {
			throttles = enf.ThrottleEvents()
		}
		return float64(over) / float64(ticks), delivered / demanded, throttles, nil
	}

	unprotOver, _, _, err := runOnce(false)
	if err != nil {
		return nil, err
	}
	protOver, kept, throttles, err := runOnce(true)
	if err != nil {
		return nil, err
	}
	return CappingResult{
		CapW:               capW,
		UnprotectedOverCap: unprotOver,
		ProtectedOverCap:   protOver,
		ThroughputKept:     kept,
		ThrottleEvents:     throttles,
	}, nil
}

// ---------------------------------------------------------------------------
// geo — route load to efficient sites (§3.2)
// ---------------------------------------------------------------------------

// GeoResult compares single-site operation against federation-aware
// routing over a week of weather.
type GeoResult struct {
	HomeKWh   float64
	RoutedKWh float64
	Saving    float64
	// EconoShare is the fraction of routed work served by economized
	// sites.
	EconoShare float64
	Unplaced   float64
}

// ID implements Result.
func (GeoResult) ID() string { return "geo" }

// Report implements Result.
func (r GeoResult) Report() string {
	var b strings.Builder
	b.WriteString(header("geo", "migrate work to efficient sites across the federation (§3.2)"))
	fmt.Fprintf(&b, "one week, all load at the home (chiller) site: %.0f kWh\n", r.HomeKWh)
	fmt.Fprintf(&b, "geo-routed by marginal efficiency under a latency bound: %.0f kWh (%.0f%% saved)\n",
		r.RoutedKWh, r.Saving*100)
	fmt.Fprintf(&b, "share of work served with free cooling: %.0f%%; unplaced: %.2f%%\n",
		r.EconoShare*100, r.Unplaced*100)
	return b.String()
}

// RunGeo routes a diurnal demand across three sites whose marginal PUE
// follows their weather (economizers engage when their outside air
// allows).
func RunGeo(env *Env) (Result, error) {
	seed := env.Seed
	rng := sim.NewRNG(seed)
	mkWeather := func(label string, mean float64) (*trace.Weather, error) {
		cfg := trace.DefaultWeatherConfig()
		cfg.Duration = 7 * 24 * time.Hour
		cfg.MeanTempC = mean
		return trace.GenerateWeather(cfg, rng.Fork(label))
	}
	cool, err := mkWeather("cool", 8)
	if err != nil {
		return nil, err
	}
	warm, err := mkWeather("warm", 24)
	if err != nil {
		return nil, err
	}
	econoOK := func(w *trace.Weather, t time.Duration) bool {
		return w.TempC.At(t) <= 18 && w.RH.At(t) >= 0.2 && w.RH.At(t) <= 0.8
	}

	const wattsPerUnit = 0.3
	demandAt := func(t time.Duration) float64 {
		h := math.Mod(t.Hours(), 24)
		return 600 + 700*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
	}

	var homeJ, routedJ, econoUnits, totalUnits, unplacedUnits float64
	for hr := 0; hr < 7*24; hr++ {
		t := time.Duration(hr) * time.Hour
		demand := demandAt(t)
		totalUnits += demand

		// Home-only operation: the warm chiller-bound site.
		homePUE := 1.9
		if econoOK(warm, t) {
			homePUE = 1.3
		}
		homeJ += demand * wattsPerUnit * homePUE * 3600

		// Federation: home + a cool economized site + a far site out of
		// the latency bound.
		coolPUE := 1.9
		if econoOK(cool, t) {
			coolPUE = 1.25
		}
		sites := []core.Site{
			{Name: "home-warm", CapacityUnits: 1400, MarginalPUE: homePUE, WattsPerUnit: wattsPerUnit, Latency: 20 * time.Millisecond},
			{Name: "north-cool", CapacityUnits: 900, MarginalPUE: coolPUE, WattsPerUnit: wattsPerUnit, Latency: 70 * time.Millisecond},
			{Name: "far-arctic", CapacityUnits: 2000, MarginalPUE: 1.15, WattsPerUnit: wattsPerUnit, Latency: 250 * time.Millisecond},
		}
		allocs, powerW, unplaced, err := core.GeoRoute(demand, sites, 100*time.Millisecond)
		if err != nil {
			return nil, err
		}
		routedJ += powerW * 3600
		unplacedUnits += unplaced
		for _, a := range allocs {
			if a.Site == "north-cool" && coolPUE < 1.5 {
				econoUnits += a.Units
			}
			if a.Site == "home-warm" && homePUE < 1.5 {
				econoUnits += a.Units
			}
		}
	}
	res := GeoResult{
		HomeKWh:    homeJ / 3.6e6,
		RoutedKWh:  routedJ / 3.6e6,
		EconoShare: econoUnits / totalUnits,
		Unplaced:   unplacedUnits / totalUnits,
	}
	if homeJ > 0 {
		res.Saving = 1 - routedJ/homeJ
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// ablate-forecast — forecaster family vs flash-crowd ramps
// ---------------------------------------------------------------------------

// AblateForecastRow is one forecaster's outcome on the surge.
type AblateForecastRow struct {
	Name      string
	Shortfall float64 // fraction of periods with capacity < demand
	MeanFleet float64
}

// AblateForecastResult compares provisioner forecasters on the Animoto
// surge.
type AblateForecastResult struct {
	Rows []AblateForecastRow
}

// ID implements Result.
func (AblateForecastResult) ID() string { return "ablate-forecast" }

// Report implements Result.
func (r AblateForecastResult) Report() string {
	var b strings.Builder
	b.WriteString(header("ablate-forecast", "forecaster ablation on the surge (design choice)"))
	b.WriteString("forecaster      shortfall%  mean_fleet\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s  %9.2f  %10.1f\n", row.Name, row.Shortfall*100, row.MeanFleet)
	}
	b.WriteString("trend-following (Holt) should ride the exponential ramp best\n")
	return b.String()
}

// RunAblateForecast runs the surge under three forecaster families. The
// scenario is deliberately tight — a one-day ramp, no spare servers, 95 %
// target utilization — so forecaster quality is the only safety margin.
func RunAblateForecast(env *Env) (Result, error) {
	seed := env.Seed
	cfg := trace.DefaultSurgeConfig()
	cfg.RampDuration = 24 * time.Hour // steeper than the 3-day Animoto ramp
	surge, err := trace.GenerateSurge(cfg, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	mk := func(name string) (control.Forecaster, error) {
		switch name {
		case "ewma":
			return control.NewEWMA(0.4)
		case "holt":
			return control.NewHolt(0.6, 0.3)
		case "window+2sd":
			return control.NewMovingWindow(12, 2)
		default:
			return nil, fmt.Errorf("exp: unknown forecaster %q", name)
		}
	}
	var res AblateForecastResult
	for _, name := range []string{"ewma", "holt", "window+2sd"} {
		f, err := mk(name)
		if err != nil {
			return nil, err
		}
		prov, err := onoff.NewProvisioner(onoff.ProvisionerConfig{
			CapacityPerServer: 1,
			TargetUtil:        0.95,
			Spares:            0,
			Min:               20,
			Max:               4000,
			DownscaleAfter:    6,
			LookaheadSteps:    2,
			Forecaster:        f,
		})
		if err != nil {
			return nil, err
		}
		const step = 10 * time.Minute
		fleet := 50
		var short int
		var fleetSum float64
		steps := int(surge.Duration() / step)
		for i := 0; i < steps; i++ {
			t := time.Duration(i) * step
			demand := surge.At(t)
			if float64(fleet) < demand {
				short++
			}
			fleetSum += float64(fleet)
			prov.Observe(demand)
			fleet = prov.Desired(fleet)
		}
		res.Rows = append(res.Rows, AblateForecastRow{
			Name:      name,
			Shortfall: float64(short) / float64(steps),
			MeanFleet: fleetSum / float64(steps),
		})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// ablate-ladder — DVFS ladder depth under coordination
// ---------------------------------------------------------------------------

// AblateLadderRow is one ladder's coordinated-run outcome.
type AblateLadderRow struct {
	Name      string
	States    int
	EnergyKWh float64
}

// AblateLadderResult measures how much the DVFS ladder depth matters once
// on/off coordination exists — at 60 % idle power, consolidation
// dominates, which is exactly the energy-proportionality argument of [9].
type AblateLadderResult struct {
	Rows []AblateLadderRow
}

// ID implements Result.
func (AblateLadderResult) ID() string { return "ablate-ladder" }

// Report implements Result.
func (r AblateLadderResult) Report() string {
	var b strings.Builder
	b.WriteString(header("ablate-ladder", "DVFS ladder depth under coordination (design choice)"))
	b.WriteString("ladder        states  energy_kWh\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s  %6d  %10.2f\n", row.Name, row.States, row.EnergyKWh)
	}
	b.WriteString("with 60% idle power, coordination gains come mostly from on/off, not ladder depth\n")
	return b.String()
}

// RunAblateLadder runs the coordinated manager with three ladders.
func RunAblateLadder(env *Env) (Result, error) {
	seed := env.Seed
	fine := make([]server.PState, 0, 9)
	for f := 1.0; f > 0.55; f -= 0.05 {
		fine = append(fine, server.PState{Freq: f, DynFactor: f * f * f})
	}
	ladders := []struct {
		name   string
		states []server.PState
	}{
		{"none", []server.PState{{Freq: 1, DynFactor: 1}}},
		{"default-5", server.DefaultPStates()},
		{"fine-9", fine},
	}
	const fleet = 40
	var res AblateLadderResult
	for _, lad := range ladders {
		srv := server.DefaultConfig()
		srv.PStates = lad.states
		demand := func(now time.Duration) float64 {
			h := math.Mod(now.Hours(), 24)
			frac := 0.15 + 0.35*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
			return frac * fleet * srv.Capacity
		}
		e := env.NewEngine(seed)
		m, err := core.NewManager(e, core.ManagerConfig{
			ServerConfig:   srv,
			FleetSize:      fleet,
			Queue:          workload.DefaultQueueModel(),
			SLA:            100 * time.Millisecond,
			DecisionPeriod: time.Minute,
			Mode:           core.ModeCoordinated,
			InitialOn:      fleet / 4,
		}, demand)
		if err != nil {
			return nil, err
		}
		m.Start()
		const horizon = 2 * 24 * time.Hour
		if err := e.Run(horizon); err != nil {
			return nil, err
		}
		rr := m.Result(horizon)
		res.Rows = append(res.Rows, AblateLadderRow{
			Name:      lad.name,
			States:    len(lad.states),
			EnergyKWh: rr.EnergyKWh,
		})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// ablate-hysteresis — downscale hysteresis vs machine cycling
// ---------------------------------------------------------------------------

// AblateHysteresisRow is one hysteresis setting's outcome.
type AblateHysteresisRow struct {
	DownscaleAfter int
	UpSwitches     int
	BootKWh        float64
	MeanFleet      float64
}

// AblateHysteresisResult measures how downscale hysteresis suppresses
// boot-energy-wasting cycles on a noisy workload (§4.3: "this wakeup
// process may consume more energy and offset the benefit of sleeping").
type AblateHysteresisResult struct {
	Rows []AblateHysteresisRow
}

// ID implements Result.
func (AblateHysteresisResult) ID() string { return "ablate-hysteresis" }

// Report implements Result.
func (r AblateHysteresisResult) Report() string {
	var b strings.Builder
	b.WriteString(header("ablate-hysteresis", "downscale hysteresis vs machine cycling (design choice)"))
	b.WriteString("downscale_after  scale_ups  boot_kWh  mean_fleet\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%15d  %9d  %8.2f  %10.1f\n",
			row.DownscaleAfter, row.UpSwitches, row.BootKWh, row.MeanFleet)
	}
	return b.String()
}

// RunAblateHysteresis drives a noisy diurnal trace through provisioners
// with increasing hysteresis.
func RunAblateHysteresis(env *Env) (Result, error) {
	seed := env.Seed
	cfg := trace.DefaultDiurnalConfig()
	cfg.Duration = 3 * 24 * time.Hour
	cfg.Step = 5 * time.Minute
	cfg.NoiseSD = 0.12 // noisy: tempts a naive policy into cycling
	cfg.Mean = 500
	cfg.Swing = 0.6
	demand, err := trace.GenerateDiurnal(cfg, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	srv := server.DefaultConfig()
	var res AblateHysteresisResult
	for _, after := range []int{1, 3, 6, 12} {
		prov, err := onoff.NewProvisioner(onoff.ProvisionerConfig{
			CapacityPerServer: 10, // demand units per server
			TargetUtil:        0.8,
			Spares:            2,
			Min:               4,
			Max:               200,
			DownscaleAfter:    after,
			LookaheadSteps:    2,
		})
		if err != nil {
			return nil, err
		}
		fleet := 50
		var ups int
		var bootJ, fleetSum float64
		steps := demand.Len()
		for i := 0; i < steps; i++ {
			t := time.Duration(i) * cfg.Step
			prov.Observe(demand.At(t))
			next := prov.Desired(fleet)
			if next > fleet {
				ups++
				bootJ += float64(next-fleet) * srv.BootEnergy
			}
			fleet = next
			fleetSum += float64(fleet)
		}
		res.Rows = append(res.Rows, AblateHysteresisRow{
			DownscaleAfter: after,
			UpSwitches:     ups,
			BootKWh:        bootJ / 3.6e6,
			MeanFleet:      fleetSum / float64(steps),
		})
	}
	return res, nil
}
