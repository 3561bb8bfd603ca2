package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/onoff"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// fig1 — power distribution tiers (paper Figure 1, §2.1)
// ---------------------------------------------------------------------------

// Fig1Row is the power flow at one fleet utilization level.
type Fig1Row struct {
	Utilization    float64
	CriticalKW     float64
	UPSLossKW      float64
	OtherLossKW    float64
	FacilityInKW   float64
	DistEfficiency float64
}

// Fig1Result reproduces the structure of Figure 1: power flowing from the
// grid through UPS and PDUs to racks, with per-tier losses.
type Fig1Result struct {
	Rows []Fig1Row
	// HostableServers is the §2.1 sizing rule outcome: how many 300 W
	// servers the UPS tier can host at worst case.
	HostableServers int
	// OverloadAt reports the first utilization sweep point (×100 %)
	// at which any tier exceeded its rating under 1.25× oversubscribed
	// upstream sizing, or -1.
	OverloadAt float64
}

// ID implements Result.
func (Fig1Result) ID() string { return "fig1" }

// Report implements Result.
func (r Fig1Result) Report() string {
	var b strings.Builder
	b.WriteString(header("fig1", "power distribution tiers (Figure 1)"))
	b.WriteString("util%  critical_kW  ups_loss_kW  other_loss_kW  facility_kW  dist_eff\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%5.0f  %11.1f  %11.2f  %13.2f  %11.1f  %8.3f\n",
			row.Utilization*100, row.CriticalKW, row.UPSLossKW, row.OtherLossKW,
			row.FacilityInKW, row.DistEfficiency)
	}
	fmt.Fprintf(&b, "hostable 300W servers under UPS worst-case sizing: %d\n", r.HostableServers)
	if r.OverloadAt >= 0 {
		fmt.Fprintf(&b, "with 1.25x oversubscription, first tier overload at %.0f%% fleet utilization\n", r.OverloadAt*100)
	}
	return b.String()
}

// RunFig1 sweeps fleet utilization through a canonical tree and reports
// per-tier losses and the UPS sizing rule.
func RunFig1(env *Env) (Result, error) {
	seed := env.Seed
	e := env.NewEngine(seed)
	cfg := server.DefaultConfig()
	topoCfg := power.TopologyConfig{
		UPSCount: 2, PDUsPerUPS: 2, RacksPerPDU: 4,
		RackRatedW: 12_000, Oversubscription: 1,
	}
	topo, err := power.NewTopology(topoCfg)
	if err != nil {
		return nil, err
	}
	const perRack = 30
	fleet, err := core.NewFleet(e, cfg, perRack*len(topo.Racks))
	if err != nil {
		return nil, err
	}
	for i, s := range fleet.Servers() {
		s := s
		topo.Racks[i/perRack].AddLoad(func() float64 { return s.Power() })
	}
	fleet.SetTarget(fleet.Size())
	if err := e.Run(cfg.BootDelay + time.Second); err != nil {
		return nil, err
	}

	var res Fig1Result
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		fleet.Dispatch(e.Now(), u*float64(fleet.Size())*cfg.Capacity)
		flow := topo.Feed.Evaluate()
		var upsLoss float64
		for _, uf := range flow.Children {
			upsLoss += uf.LossW
		}
		res.Rows = append(res.Rows, Fig1Row{
			Utilization:    u,
			CriticalKW:     flow.CriticalPower() / 1e3,
			UPSLossKW:      upsLoss / 1e3,
			OtherLossKW:    (flow.TotalLoss() - upsLoss) / 1e3,
			FacilityInKW:   flow.InW / 1e3,
			DistEfficiency: flow.CriticalPower() / flow.InW,
		})
	}
	res.HostableServers = topo.HostableServers(cfg.PeakPower)

	// Oversubscribed variant: find where the first tier overloads.
	res.OverloadAt = -1
	overTopo, err := power.NewTopology(power.TopologyConfig{
		UPSCount: 2, PDUsPerUPS: 2, RacksPerPDU: 4,
		RackRatedW: 12_000, Oversubscription: 1.25,
	})
	if err != nil {
		return nil, err
	}
	for i, s := range fleet.Servers() {
		s := s
		overTopo.Racks[i/perRack].AddLoad(func() float64 { return s.Power() })
	}
	for _, u := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		fleet.Dispatch(e.Now(), u*float64(fleet.Size())*cfg.Capacity)
		if len(overTopo.Feed.Evaluate().Violations()) > 0 {
			res.OverloadAt = u
			break
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// fig2 — air-cooled room dynamics (paper Figure 2, §2.2)
// ---------------------------------------------------------------------------

// Fig2Result reproduces the behaviour the paper attaches to Figure 2:
// slow thermal dynamics under 15-minute CRAC control.
type Fig2Result struct {
	// SettleAfterStep is how long zone inlets took to come within 0.5 °C
	// of their final value after a heat step.
	SettleAfterStep time.Duration
	// CRACAdjustments counts setpoint changes over the run.
	CRACAdjustments int
	// MaxInletC and MinInletC bound the observed inlets.
	MaxInletC, MinInletC float64
	// ASHRAEFraction is the share of samples inside the recommended
	// 20–25 °C band.
	ASHRAEFraction float64
	// InletTrace is the minute-sampled inlet of zone 0 (for plotting).
	InletTrace *trace.Series
}

// ID implements Result.
func (Fig2Result) ID() string { return "fig2" }

// Report implements Result.
func (r Fig2Result) Report() string {
	var b strings.Builder
	b.WriteString(header("fig2", "air-cooled room dynamics (Figure 2)"))
	fmt.Fprintf(&b, "inlet settle time after 20kW heat step: %v (paper: slow dynamics, 15-min CRAC reactions)\n", r.SettleAfterStep.Round(time.Minute))
	fmt.Fprintf(&b, "CRAC setpoint adjustments over 12h: %d\n", r.CRACAdjustments)
	fmt.Fprintf(&b, "inlet range: %.1f..%.1f degC; ASHRAE 20-25degC compliance: %.0f%%\n",
		r.MinInletC, r.MaxInletC, r.ASHRAEFraction*100)
	return b.String()
}

// CSVs exports the inlet-temperature series for replotting.
func (r Fig2Result) CSVs() map[string]string {
	return map[string]string{"fig2_inlet": r.InletTrace.CSV("zone0_inlet_c")}
}

// RunFig2 drives a 4-zone 2-CRAC room through a heat step and measures
// the slow response.
func RunFig2(env *Env) (Result, error) {
	seed := env.Seed
	e := env.NewEngine(seed)
	room, err := cooling.UniformRoom(4, 2, 0.9)
	if err != nil {
		return nil, err
	}
	room.Attach(e)
	const baseHeat = 20_000.0
	for z := 0; z < room.Zones(); z++ {
		if err := room.SetZoneHeat(z, baseHeat); err != nil {
			return nil, err
		}
	}
	var inlets []float64
	var inASHRAE, samples int
	stepAt := 6 * time.Hour
	e.Every(time.Minute, func(eng *sim.Engine) {
		v := room.ZoneInletC(0)
		inlets = append(inlets, v)
		samples++
		if v >= cooling.ASHRAEMinTempC && v <= cooling.ASHRAEMaxTempC {
			inASHRAE++
		}
	})
	e.At(stepAt, func(*sim.Engine) {
		for z := 0; z < room.Zones(); z++ {
			_ = room.SetZoneHeat(z, baseHeat*2)
		}
	})
	if err := e.Run(12 * time.Hour); err != nil {
		return nil, err
	}

	res := Fig2Result{
		CRACAdjustments: room.CRACAdjustments(0) + room.CRACAdjustments(1),
	}
	res.InletTrace = &trace.Series{Step: time.Minute, Values: inlets}
	res.MinInletC, res.MaxInletC = res.InletTrace.Min(), res.InletTrace.Max()
	res.ASHRAEFraction = float64(inASHRAE) / float64(samples)

	// Settle time: first minute after the step where the inlet stays
	// within 0.5 °C of the final value.
	final := inlets[len(inlets)-1]
	stepIdx := int(stepAt / time.Minute)
	settleIdx := len(inlets) - 1
	for i := len(inlets) - 1; i >= stepIdx; i-- {
		if diff := inlets[i] - final; diff > 0.5 || diff < -0.5 {
			settleIdx = i + 1
			break
		}
	}
	res.SettleAfterStep = time.Duration(settleIdx-stepIdx) * time.Minute
	return res, nil
}

// ---------------------------------------------------------------------------
// fig3 — Messenger load variation (paper Figure 3, §3)
// ---------------------------------------------------------------------------

// Fig3Result reproduces the properties the paper reads off Figure 3.
type Fig3Result struct {
	PeakConnections     float64
	PeakLoginRate       float64
	AfternoonNightRatio float64
	WeekdayWeekendRatio float64
	FlashCrowds         int
	Messenger           *trace.Messenger
}

// ID implements Result.
func (Fig3Result) ID() string { return "fig3" }

// Report implements Result.
func (r Fig3Result) Report() string {
	var b strings.Builder
	b.WriteString(header("fig3", "Messenger load variation (Figure 3)"))
	fmt.Fprintf(&b, "peak connections: %.2g (figure normalized to 1e6)\n", r.PeakConnections)
	fmt.Fprintf(&b, "peak login rate: %.0f/s (figure normalized to 1400/s)\n", r.PeakLoginRate)
	fmt.Fprintf(&b, "afternoon/after-midnight connections: %.2f (paper: \"almost twice\")\n", r.AfternoonNightRatio)
	fmt.Fprintf(&b, "weekday/weekend mean connections: %.2f (paper: weekdays higher)\n", r.WeekdayWeekendRatio)
	fmt.Fprintf(&b, "flash crowds injected: %d (paper: \"flash crowd effects\")\n", r.FlashCrowds)
	return b.String()
}

// CSVs exports the two series of Figure 3 for replotting.
func (r Fig3Result) CSVs() map[string]string {
	return map[string]string{
		"fig3_connections": r.Messenger.Connections.CSV("connections"),
		"fig3_logins":      r.Messenger.Logins.CSV("login_rate_per_s"),
	}
}

// RunFig3 generates the calibrated week-long trace and measures the
// figure's properties.
func RunFig3(env *Env) (Result, error) {
	seed := env.Seed
	m, err := trace.GenerateMessenger(trace.DefaultMessengerConfig(), sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	res := Fig3Result{
		PeakConnections: m.Connections.Max(),
		PeakLoginRate:   m.Logins.Max(),
		FlashCrowds:     len(m.FlashTimes),
		Messenger:       m,
	}
	day := meanInWindow(m.Connections, 13, 16, false)
	night := meanInWindow(m.Connections, 0, 4, false)
	if night > 0 {
		res.AfternoonNightRatio = day / night
	}
	wd := meanInWindow(m.Connections, 0, 24, false)
	we := meanInWindow(m.Connections, 0, 24, true)
	if we > 0 {
		res.WeekdayWeekendRatio = wd / we
	}
	return res, nil
}

// meanInWindow averages a series over an hour-of-day window, restricted
// to weekends or weekdays.
func meanInWindow(s *trace.Series, h0, h1 float64, weekend bool) float64 {
	var sum float64
	var n int
	for i := range s.Values {
		t := time.Duration(i) * s.Step
		hours := t.Hours()
		dow := int(hours/24) % 7
		isWE := dow >= 5
		h := hours - 24*float64(int(hours/24))
		if h >= h0 && h < h1 && isWE == weekend {
			sum += s.Values[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ---------------------------------------------------------------------------
// fig4 — macro-resource management end to end (paper Figure 4, §3.2)
// ---------------------------------------------------------------------------

// Fig4Result runs the coordinated MRM over a full facility (power tree +
// cooling + telemetry) on a diurnal demand and reports the cross-layer
// outcome — the architecture of Figure 4 exercised end to end.
type Fig4Result struct {
	EnergyKWh        float64
	MeanPUE          float64
	SLAViolationRate float64
	ThermalTrips     int
	PowerViolations  int
	CapEnforcements  int
	MeanActive       float64
	TelemetryKeys    int
}

// ID implements Result.
func (Fig4Result) ID() string { return "fig4" }

// Report implements Result.
func (r Fig4Result) Report() string {
	var b strings.Builder
	b.WriteString(header("fig4", "macro-resource management end-to-end (Figure 4)"))
	fmt.Fprintf(&b, "48h coordinated run: IT energy %.1f kWh, mean PUE %.2f\n", r.EnergyKWh, r.MeanPUE)
	fmt.Fprintf(&b, "SLA violation rate %.3f, thermal trips %d, power-tree violations %d, cap enforcements %d\n",
		r.SLAViolationRate, r.ThermalTrips, r.PowerViolations, r.CapEnforcements)
	fmt.Fprintf(&b, "mean active servers %.1f, telemetry keys collected %d\n", r.MeanActive, r.TelemetryKeys)
	return b.String()
}

// scaledZone is a DefaultZone whose airflow carries `scale` times the
// servers: the facility multiplier grows racks and the air moving
// through them together, so zone temperature dynamics stay
// representative at any scale (and identical at scale 1).
func scaledZone(name string, scale int) cooling.ZoneConfig {
	z := cooling.DefaultZone(name)
	z.Airflow *= float64(scale)
	return z
}

// RunFig4 assembles the facility and the coordinated manager together.
// Env.Scale multiplies servers per rack (and the matching power/cooling
// ratings), turning the paper-scale 40-server facility into a scale
// benchmark with identical control structure.
func RunFig4(env *Env) (Result, error) {
	seed := env.Seed
	scale := env.FleetScale()
	e := env.NewEngine(seed)
	srvCfg := server.DefaultConfig()
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 2_000 * float64(scale)
	dcCfg := core.DataCenterConfig{
		Name:           "dc-fig4",
		ServerConfig:   srvCfg,
		ServersPerRack: 10 * scale,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 2, RacksPerPDU: 2,
			RackRatedW: 4_000 * float64(scale), Oversubscription: 1,
		},
		Room:        cooling.FourZoneConfig(float64(scale)),
		ZoneOfRack:  []int{0, 1, 2, 3},
		Plant:       plant,
		SampleEvery: 15 * time.Second,
		Pool:        env.Pool(),
	}
	dc, err := core.NewDataCenter(e, dcCfg)
	if err != nil {
		return nil, err
	}
	if _, err := dc.Attach(); err != nil {
		return nil, err
	}
	// Cooling-aware activation: servers in well-regulated zones come up
	// first and shed last (§5.1).
	if err := dc.PreferCoolingSensitiveZones(); err != nil {
		return nil, err
	}
	// Power caps on every rack at ~93 % of worst case, with the §3.1
	// enforcement loop as the safety valve.
	rackServers := make([][]*server.Server, len(dc.Topology().Racks))
	for i, s := range dc.Fleet().Servers() {
		rackServers[dc.RackOfServer(i)] = append(rackServers[dc.RackOfServer(i)], s)
	}
	for _, rack := range dc.Topology().Racks {
		rack.SetCap(float64(dcCfg.ServersPerRack) * srvCfg.PeakPower * 0.93)
	}
	enforcer, err := core.NewCapEnforcer(dc.Topology().Racks, rackServers)
	if err != nil {
		return nil, err
	}
	e.Every(time.Minute, func(eng *sim.Engine) { enforcer.Enforce(eng.Now()) })
	demand := func(now time.Duration) float64 {
		h := now.Hours() - 24*float64(int(now.Hours()/24))
		// Diurnal between 20 % and 75 % of fleet capacity.
		frac := 0.2 + 0.55*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
		return frac * float64(dc.Fleet().Size()) * srvCfg.Capacity
	}
	mgrCfg := core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      dc.Fleet().Size(),
		Queue:          workload.DefaultQueueModel(),
		SLA:            100 * time.Millisecond,
		DecisionPeriod: time.Minute,
		Mode:           core.ModeCoordinated,
		InitialOn:      dc.Fleet().Size() / 2,
		// Steps scale with the facility so the controller's relative
		// adjustment rate is the same at every -scale.
		Trigger: onoff.DelayTrigger{High: 60 * time.Millisecond, Low: 25 * time.Millisecond, StepUp: scale, StepDown: scale, Min: 1, Max: dc.Fleet().Size()},
	}
	mgr, err := core.NewManagerForFleet(e, mgrCfg, dc.Fleet(), demand)
	if err != nil {
		return nil, err
	}
	mgr.Start()

	var pueSum float64
	var pueN, powerViol int
	e.Every(15*time.Minute, func(eng *sim.Engine) {
		pue, _, err := dc.PUEAt(core.PUEOutsideC, core.PUEOutsideRH)
		if err == nil {
			pueSum += pue
			pueN++
		}
		powerViol += len(dc.Flow().Violations())
	})
	const horizon = 48 * time.Hour
	if err := e.Run(horizon); err != nil {
		return nil, err
	}
	mres := mgr.Result(horizon)
	res := Fig4Result{
		EnergyKWh:        mres.EnergyKWh,
		SLAViolationRate: mres.SLAViolationRate,
		ThermalTrips:     dc.Trips(),
		PowerViolations:  powerViol,
		CapEnforcements:  enforcer.ThrottleEvents(),
		MeanActive:       mres.MeanActive,
		TelemetryKeys:    len(dc.Store().Keys()),
	}
	if pueN > 0 {
		res.MeanPUE = pueSum / float64(pueN)
	}
	return res, nil
}
