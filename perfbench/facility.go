package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/onoff"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// facilitySize shapes the facility workload. The full size is the 100k
// tier of the repository's scale benchmarks; the smoke test shrinks it.
// The span is one simulated hour, not the scale benchmarks' two: the
// telemetry store's retained raw band grows with the span, and two hours
// peak near 2.8 GB resident against about 1.2 GB for one.
type facilitySize struct {
	perRack int
	span    time.Duration
}

var (
	facilityFull = facilitySize{perRack: 1000, span: time.Hour}
	facilityToy  = facilitySize{perRack: 2, span: 20 * time.Minute}
)

const (
	facilityRacks    = 100              // fixed by the power tree: 2 UPS × 5 PDU × 10 racks
	facilityCadence  = time.Minute      // decisions, cap enforcement, telemetry frames
	facilityPUEProbe = 15 * time.Minute // PUEAt probes
)

// facilityDemand generates the offered load for one seed, one value per
// decision period: the scale benchmarks' diurnal cosine (20%–75% of fleet
// capacity, peak at 14:00), phase-shifted so the span starts between
// 06:00 and 08:00 local time — the morning ramp — with a ±2% jitter per
// minute.
func facilityDemand(seed int64, sz facilitySize, capacity float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	startH := 6 + 2*rng.Float64()
	n := int(sz.span/facilityCadence) + 1
	out := make([]float64, n)
	total := float64(facilityRacks*sz.perRack) * capacity
	for i := range out {
		h := startH + float64(i)*facilityCadence.Hours()
		frac := 0.2 + 0.55*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
		out[i] = frac * (1 + 0.02*(2*rng.Float64()-1)) * total
	}
	return out
}

func facilityRep(o options, seed int64, tr *tracer, root int) repResult {
	sz := facilityFull
	if o.toy {
		sz = facilityToy
	}
	return runFacility(sz, seed, tr, root)
}

// runFacility is one rep of the facility workload: the fig4 control stack
// the scale benchmarks wire (power tree, 4-zone room with 2 CRACs, rack
// caps with CapEnforcer, the coordinated manager without admission,
// 1-minute telemetry frames, 15-minute PUE probes), closed loop and as
// fast as it runs.
func runFacility(sz facilitySize, seed int64, tr *tracer, root int) repResult {
	var r repResult
	r.ops = 1
	nServers := facilityRacks * sz.perRack
	srvCfg := server.DefaultConfig()
	demand := facilityDemand(seed, sz, srvCfg.Capacity)

	setupSpan := tr.begin("setup", root)
	t0 := time.Now()
	r.workers = runtime.GOMAXPROCS(0)
	pool := par.New(r.workers)
	defer pool.Close()
	e := sim.NewEngine(seed)
	airScale := float64(nServers) / 40
	zone := func(name string) cooling.ZoneConfig {
		z := cooling.DefaultZone(name)
		z.Airflow *= airScale
		return z
	}
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 2_000 * airScale
	zoneOfRack := make([]int, facilityRacks)
	for i := range zoneOfRack {
		zoneOfRack[i] = i % 4
	}
	crac := cooling.DefaultCRAC("c0")
	dc, err := core.NewDataCenter(e, core.DataCenterConfig{
		Name:           "facility",
		ServerConfig:   srvCfg,
		ServersPerRack: sz.perRack,
		Topology: power.TopologyConfig{
			UPSCount: 2, PDUsPerUPS: 5, RacksPerPDU: 10,
			RackRatedW: float64(sz.perRack) * srvCfg.PeakPower * 1.05, Oversubscription: 1,
		},
		Room: cooling.RoomConfig{
			Zones:       []cooling.ZoneConfig{zone("z0"), zone("z1"), zone("z2"), zone("z3")},
			CRACs:       []cooling.CRACConfig{crac, cooling.DefaultCRAC("c1")},
			Sensitivity: [][]float64{{0.6, 0.3}, {0.5, 0.4}, {0.4, 0.5}, {0.3, 0.6}},
			PhysicsTick: cooling.DefaultPhysicsTick,
		},
		ZoneOfRack:  zoneOfRack,
		Plant:       plant,
		SampleEvery: facilityCadence,
		Pool:        pool,
	})
	if err != nil {
		r.fail("build facility: %v", err)
		return r
	}

	// DataCenter.Attach registers, in order: the room's physics step
	// (PhysicsTick), one control tick per CRAC (ControlPeriod), the
	// server↔room coupling with the trip scan (PhysicsTick), and the
	// telemetry sample (SampleEvery). The traced rep brackets each period.
	var clock *handlerClock
	var groups []*bracket
	if tr != nil {
		clock = newHandlerClock(tr, e)
		groups = []*bracket{
			{period: cooling.DefaultPhysicsTick, labels: []string{"cooling.room", "core.physics"}},
			{period: crac.ControlPeriod, labels: []string{"cooling.room", "cooling.room"}},
			{period: facilityCadence, labels: []string{"core.sample"}},
		}
		clock.openGroups(e, groups)
	}
	if _, err := dc.Attach(); err != nil {
		r.fail("attach facility: %v", err)
		return r
	}
	if clock != nil {
		clock.closeGroups(e, groups)
	}
	if err := dc.PreferCoolingSensitiveZones(); err != nil {
		r.fail("zone preference: %v", err)
		return r
	}
	rackServers := make([][]*server.Server, facilityRacks)
	for i, s := range dc.Fleet().Servers() {
		rackServers[dc.RackOfServer(i)] = append(rackServers[dc.RackOfServer(i)], s)
	}
	for _, rack := range dc.Topology().Racks {
		rack.SetCap(float64(sz.perRack) * srvCfg.PeakPower * 0.93)
	}
	enforcer, err := core.NewCapEnforcer(dc.Topology().Racks, rackServers)
	if err != nil {
		r.fail("cap enforcer: %v", err)
		return r
	}
	var simSpan int
	e.Every(facilityCadence, func(eng *sim.Engine) {
		s := tr.begin("power.enforce", simSpan)
		enforcer.Enforce(eng.Now())
		tr.end(s)
	})
	mgr, err := core.NewManagerForFleet(e, core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      nServers,
		Queue:          workload.DefaultQueueModel(),
		SLA:            100 * time.Millisecond,
		DecisionPeriod: facilityCadence,
		Mode:           core.ModeCoordinated,
		InitialOn:      nServers / 2,
		Trigger:        onoff.DelayTrigger{High: 60 * time.Millisecond, Low: 25 * time.Millisecond, StepUp: 1, StepDown: 1, Min: 1, Max: nServers},
		Pool:           pool,
	}, dc.Fleet(), func(now time.Duration) float64 {
		// The manager calls its demand source first thing in every
		// decision tick, which is where the traced rep starts its span.
		if clock != nil {
			clock.managerStarted()
		}
		i := int(now / facilityCadence)
		if i >= len(demand) {
			i = len(demand) - 1
		}
		return demand[i]
	})
	if err != nil {
		r.fail("manager: %v", err)
		return r
	}
	mgr.Start()
	var pueSum float64
	var pueErr error
	e.Every(facilityPUEProbe, func(*sim.Engine) {
		s := tr.begin("power.pue", simSpan)
		pue, _, err := dc.PUEAt(18, 0.5)
		tr.end(s)
		if err != nil && pueErr == nil {
			pueErr = err
		}
		pueSum += pue
	})
	r.setup = time.Since(t0)
	tr.end(setupSpan)

	mark := markMem()
	simSpan = tr.begin("sim.run", root)
	if clock != nil {
		clock.startRun(simSpan)
	}
	t1 := time.Now()
	err = e.Run(sz.span)
	r.wall = time.Since(t1)
	tr.end(simSpan)
	r.mem = mark.since()
	r.srvHours = float64(nServers) * sz.span.Hours()

	check := tr.begin("check", root)
	defer tr.end(check)
	if err != nil {
		r.fail("run: %v", err)
		return r
	}
	fleet := dc.Fleet()
	res := mgr.Result(sz.span)
	if err := fleet.VerifyAggregates(); err != nil {
		r.fail("fleet aggregates: %v", err)
	}
	if pueErr != nil {
		r.fail("PUE probe: %v", pueErr)
	}
	if !(res.EnergyKWh > 0) {
		r.fail("no energy accumulated")
	}
	if want := int64(sz.span / facilityCadence); mgr.Decisions() != want {
		r.fail("manager decided %d times, want %d", mgr.Decisions(), want)
	}
	events := e.Processed()
	peak := e.PeakPending()
	if clock != nil {
		// Net of the instrumentation, so traced and untraced reps agree.
		events -= clock.markerFires
		peak -= clock.markers
		if clock.mismatches > 0 {
			r.notes = append(r.notes, fmt.Sprintf("trace: %d handler brackets left unattributed", clock.mismatches))
		}
	}
	var d digest
	d.add("energy_kwh", res.EnergyKWh)
	d.addInt("switch_ons", int64(res.SwitchOns))
	d.addInt("switch_offs", int64(res.SwitchOffs))
	d.addInt("trips", int64(dc.Trips()))
	d.add("sla_violation_rate", res.SLAViolationRate)
	d.add("mean_active", res.MeanActive)
	d.add("pue_sum", pueSum)
	d.addInt("throttles", int64(enforcer.ThrottleEvents()))
	d.addInt("events", int64(events))
	r.digest = d.sum()

	st := dc.Store().Stats()
	r.layers = map[string]float64{
		"sim.events":            float64(events),
		"sim.peak_pending":      float64(peak),
		"core.decisions":        float64(mgr.Decisions()),
		"core.switches":         float64(res.SwitchOns + res.SwitchOffs),
		"core.trips":            float64(dc.Trips()),
		"core.rebases":          float64(fleet.Rebases()),
		"telemetry.raw_points":  float64(st.RawPoints),
		"telemetry.agg_buckets": float64(st.AggBuckets),
		"telemetry.dropped_raw": float64(st.DroppedRaw),
		"runtime.alloc_objects": float64(r.mem.allocObjects),
		"runtime.gc_cycles":     float64(r.mem.gcCycles),
		"runtime.gc_cpu_s":      r.mem.gcCPU,
		"sim.events_per_s":      float64(events) / r.wall.Seconds(),
	}
	return r
}
