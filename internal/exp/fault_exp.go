package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/sensornet"
	"repro/internal/server"
	"repro/internal/sim"
)

// ---------------------------------------------------------------------------
// fault-outage — utility-outage ride-through (§2.1 backup chain)
// ---------------------------------------------------------------------------

// OutageScenario is one utility-outage run's outcome.
type OutageScenario struct {
	BridgedKWh     float64
	UnservedKWh    float64
	GenAttempts    int
	GenFailures    int
	SurvivalSheds  int
	ShedServers    int
	CapEvents      int
	ThrottleEvents int
	FinalOn        int
	BatteryMinFrac float64
}

// FaultOutageResult contrasts an outage the generator bridges with one
// where every start attempt fails and the UPS runs dry.
type FaultOutageResult struct {
	RideThrough OutageScenario
	GenFail     OutageScenario
}

// ID implements Result.
func (FaultOutageResult) ID() string { return "fault-outage" }

// Report implements Result.
func (r FaultOutageResult) Report() string {
	var b strings.Builder
	b.WriteString(header("fault-outage", "utility outage: UPS bridge, generator start, graceful shedding (§2.1)"))
	row := func(name string, s OutageScenario) {
		fmt.Fprintf(&b, "%-12s bridged %.3f kWh, unserved %.3f kWh, gen %d/%d starts failed, "+
			"sheds %d (%d servers), caps %d (%d throttles), %d on at end, battery min %.0f%%\n",
			name, s.BridgedKWh, s.UnservedKWh, s.GenFailures, s.GenAttempts,
			s.SurvivalSheds, s.ShedServers, s.CapEvents, s.ThrottleEvents, s.FinalOn,
			s.BatteryMinFrac*100)
	}
	row("gen-starts:", r.RideThrough)
	row("gen-fails:", r.GenFail)
	b.WriteString("shape check: shedding and unserved load only when the generator never starts\n")
	return b.String()
}

// outageFacility is the 32·scale-server facility the outage scenarios
// share (scale 1 = the paper-scale 32 servers). pool, when non-nil,
// drives the facility's sharded per-tick loops.
func outageFacility(e *sim.Engine, scale int, pool *par.Pool) (*core.DataCenter, error) {
	if scale < 1 {
		scale = 1
	}
	srvCfg := server.DefaultConfig()
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 2_000 * float64(scale)
	dc, err := core.NewDataCenter(e, core.DataCenterConfig{
		Name:           "dc-outage",
		ServerConfig:   srvCfg,
		ServersPerRack: 8 * scale,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 2, RacksPerPDU: 2,
			RackRatedW: 2_900 * float64(scale), Oversubscription: 1,
		},
		Room: cooling.RoomConfig{
			Zones: []cooling.ZoneConfig{
				scaledZone("z0", scale), scaledZone("z1", scale),
				scaledZone("z2", scale), scaledZone("z3", scale),
			},
			CRACs:       []cooling.CRACConfig{cooling.DefaultCRAC("c0"), cooling.DefaultCRAC("c1")},
			Sensitivity: [][]float64{{0.6, 0.3}, {0.5, 0.4}, {0.4, 0.5}, {0.3, 0.6}},
			PhysicsTick: cooling.DefaultPhysicsTick,
		},
		ZoneOfRack: []int{0, 1, 2, 3},
		Plant:      plant,
		Pool:       pool,
	})
	if err != nil {
		return nil, err
	}
	if _, err := dc.Attach(); err != nil {
		return nil, err
	}
	return dc, nil
}

// RunFaultOutage runs the §2.1 backup chain end to end, twice.
func RunFaultOutage(env *Env) (Result, error) {
	runScenario := func(genFails bool) (OutageScenario, error) {
		var s OutageScenario
		e := env.NewEngine(env.Seed)
		dc, err := outageFacility(e, env.FleetScale(), env.Pool())
		if err != nil {
			return s, err
		}
		srvCfg := server.DefaultConfig()
		dc.Fleet().SetTarget(dc.Fleet().Size())
		if err := e.Run(srvCfg.BootDelay + time.Second); err != nil {
			return s, err
		}
		dc.Fleet().Dispatch(e.Now(), 0.75*float64(dc.Fleet().Size())*srvCfg.Capacity)

		// Emergency caps at 55 % of rack rating sit below the 75 %
		// dispatch draw, so redundancy loss forces real throttling.
		deg, err := core.NewDegrader(e, dc, core.DegraderConfig{EmergencyCapFrac: 0.55})
		if err != nil {
			return s, err
		}
		deg.Start()

		in := fault.NewInjector(e)
		in.WireRoom(dc.Room())
		in.WireServers(dc.Fleet().Servers())
		bat, err := power.BatteryForAutonomy(dc.Flow().OutW, 6*time.Minute, 0.94)
		if err != nil {
			return s, err
		}
		failProb := 0.0
		if genFails {
			failProb = 1.0
		}
		u, err := in.WireUtility(fault.UtilityConfig{
			Battery:          bat,
			LoadW:            func() float64 { return dc.Flow().OutW },
			GenStartDelay:    2 * time.Minute,
			GenStartFailProb: failProb,
			GenRetries:       2,
			GenRetryBackoff:  90 * time.Second,
			Tick:             5 * time.Second,
		})
		if err != nil {
			return s, err
		}
		in.Subscribe(deg.OnNotice)
		if err := in.Arm([]fault.Event{
			{Kind: fault.UtilityOutage, At: time.Hour, Duration: 45 * time.Minute},
		}); err != nil {
			return s, err
		}
		s.BatteryMinFrac = 1
		e.Every(30*time.Second, func(*sim.Engine) {
			s.BatteryMinFrac = math.Min(s.BatteryMinFrac, bat.ChargeFraction())
		})
		if err := e.Run(3 * time.Hour); err != nil {
			return s, err
		}
		s.BridgedKWh = u.BridgedJ() / 3.6e6
		s.UnservedKWh = u.UnservedJ() / 3.6e6
		s.GenAttempts = u.GenAttempts()
		s.GenFailures = u.GenFailures()
		s.SurvivalSheds = deg.SurvivalSheds()
		s.ShedServers = deg.ShedServers()
		s.CapEvents = deg.CapEvents()
		s.ThrottleEvents = deg.Enforcer().ThrottleEvents()
		s.FinalOn = dc.Fleet().OnCount()
		return s, nil
	}
	ok, err := runScenario(false)
	if err != nil {
		return nil, err
	}
	bad, err := runScenario(true)
	if err != nil {
		return nil, err
	}
	return FaultOutageResult{RideThrough: ok, GenFail: bad}, nil
}

// ---------------------------------------------------------------------------
// fault-crac — CRAC failure with and without graceful shedding (§2.2, §5.1)
// ---------------------------------------------------------------------------

// CRACFailScenario is one CRAC-failure run's outcome.
type CRACFailScenario struct {
	Trips       int
	MaxInletC   float64
	FinalActive int
	EnergyKWh   float64
}

// FaultCRACResult contrasts thermal protection (trips) with the MRM
// shedding ladder under the same six-hour CRAC outage.
type FaultCRACResult struct {
	Unmanaged      CRACFailScenario
	Managed        CRACFailScenario
	DVFSDowns      int
	Consolidations int
	ZoneSheds      int
	ShedServers    int
}

// ID implements Result.
func (FaultCRACResult) ID() string { return "fault-crac" }

// Report implements Result.
func (r FaultCRACResult) Report() string {
	var b strings.Builder
	b.WriteString(header("fault-crac", "CRAC unit failure: protection trips vs graceful shedding ladder (§2.2)"))
	fmt.Fprintf(&b, "unmanaged: %d thermal trips, hottest inlet %.1f degC, %d active at end, %.1f kWh\n",
		r.Unmanaged.Trips, r.Unmanaged.MaxInletC, r.Unmanaged.FinalActive, r.Unmanaged.EnergyKWh)
	fmt.Fprintf(&b, "managed:   %d thermal trips, hottest inlet %.1f degC, %d active at end, %.1f kWh\n",
		r.Managed.Trips, r.Managed.MaxInletC, r.Managed.FinalActive, r.Managed.EnergyKWh)
	fmt.Fprintf(&b, "ladder: %d dvfs-down, %d consolidations, %d zone sheds (%d servers)\n",
		r.DVFSDowns, r.Consolidations, r.ZoneSheds, r.ShedServers)
	b.WriteString("shape check: the ladder trades capacity for fewer protective trips\n")
	return b.String()
}

// RunFaultCRAC fails one of two CRAC units for six hours under heavy
// load.
func RunFaultCRAC(env *Env) (Result, error) {
	srvCfg := server.DefaultConfig()
	srvCfg.TripTempC = 33 // protection engages above the ASHRAE envelope
	scale := env.FleetScale()
	runScenario := func(managed bool) (CRACFailScenario, *core.Degrader, error) {
		var s CRACFailScenario
		e := env.NewEngine(env.Seed)
		plant := cooling.DefaultPlantConfig()
		plant.FanRatedW = 6_000 * float64(scale)
		dc, err := core.NewDataCenter(e, core.DataCenterConfig{
			Name:           "dc-cracfail",
			ServerConfig:   srvCfg,
			ServersPerRack: 80 * scale,
			Topology: power.TopologyConfig{
				UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: 2,
				RackRatedW: 26_400 * float64(scale), Oversubscription: 1,
			},
			Room: cooling.RoomConfig{
				Zones: []cooling.ZoneConfig{scaledZone("za", scale), scaledZone("zb", scale)},
				CRACs: []cooling.CRACConfig{cooling.DefaultCRAC("c0"), cooling.DefaultCRAC("c1")},
				// Each unit dominates one zone: losing c0 starves za.
				Sensitivity: [][]float64{{0.75, 0.15}, {0.15, 0.75}},
				PhysicsTick: cooling.DefaultPhysicsTick,
			},
			ZoneOfRack: []int{0, 1},
			Plant:      plant,
			Pool:       env.Pool(),
		})
		if err != nil {
			return s, nil, err
		}
		if _, err := dc.Attach(); err != nil {
			return s, nil, err
		}
		dc.Fleet().SetTarget(dc.Fleet().Size())
		if err := e.Run(srvCfg.BootDelay + time.Second); err != nil {
			return s, nil, err
		}
		dc.Fleet().Dispatch(e.Now(), 0.85*float64(dc.Fleet().Size())*srvCfg.Capacity)

		var deg *core.Degrader
		in := fault.NewInjector(e)
		in.WireRoom(dc.Room())
		in.WireServers(dc.Fleet().Servers())
		if managed {
			deg, err = core.NewDegrader(e, dc, core.DegraderConfig{
				CheckPeriod: time.Minute, ShedInletC: 30, RecoverInletC: 26,
			})
			if err != nil {
				return s, nil, err
			}
			in.Subscribe(deg.OnNotice)
			deg.Start()
		}
		if err := in.Arm([]fault.Event{
			{Kind: fault.CRACFailure, At: 2 * time.Hour, Duration: 6 * time.Hour, Index: 0},
		}); err != nil {
			return s, nil, err
		}
		e.Every(dc.Room().PhysicsTick(), func(*sim.Engine) {
			for z := 0; z < dc.Room().Zones(); z++ {
				s.MaxInletC = math.Max(s.MaxInletC, dc.Room().ZoneInletC(z))
			}
		})
		const horizon = 10 * time.Hour
		if err := e.Run(horizon); err != nil {
			return s, nil, err
		}
		dc.Fleet().Sync(horizon)
		s.Trips = dc.Trips()
		s.FinalActive = dc.Fleet().ActiveCount()
		s.EnergyKWh = dc.Fleet().EnergyJ() / 3.6e6
		return s, deg, nil
	}
	unmanaged, _, err := runScenario(false)
	if err != nil {
		return nil, err
	}
	managed, deg, err := runScenario(true)
	if err != nil {
		return nil, err
	}
	return FaultCRACResult{
		Unmanaged:      unmanaged,
		Managed:        managed,
		DVFSDowns:      deg.DVFSDowns(),
		Consolidations: deg.Consolidations(),
		ZoneSheds:      deg.ZoneSheds(),
		ShedServers:    deg.ShedServers(),
	}, nil
}

// ---------------------------------------------------------------------------
// fault-sensor — sensor blackout and control degradation (§4.5)
// ---------------------------------------------------------------------------

// SensorScenario is one supervisor mode's outcome.
type SensorScenario struct {
	MaxInletC   float64
	AlarmRounds int // supervisor rounds with a zone above the alarm line
	FreshRounds int // rounds controlled from fresh telemetry
	BlindRounds int // rounds with no readings delivered
}

// FaultSensorResult contrasts a supervisor that goes blind during a
// sensor blackout with one that falls back to last-good telemetry and a
// fail-safe cooling posture.
type FaultSensorResult struct {
	Naive          SensorScenario
	Guarded        SensorScenario
	FailsafeRounds int
	FallbackRounds int
	HealthyRMSE    float64
	StuckRMSE      float64
}

// ID implements Result.
func (FaultSensorResult) ID() string { return "fault-sensor" }

// Report implements Result.
func (r FaultSensorResult) Report() string {
	var b strings.Builder
	b.WriteString(header("fault-sensor", "sensor blackout: blind control vs last-good fallback + fail-safe (§4.5)"))
	fmt.Fprintf(&b, "naive:   hottest inlet %.1f degC, %d alarm rounds, %d fresh / %d blind rounds\n",
		r.Naive.MaxInletC, r.Naive.AlarmRounds, r.Naive.FreshRounds, r.Naive.BlindRounds)
	fmt.Fprintf(&b, "guarded: hottest inlet %.1f degC, %d alarm rounds, %d fresh / %d blind rounds\n",
		r.Guarded.MaxInletC, r.Guarded.AlarmRounds, r.Guarded.FreshRounds, r.Guarded.BlindRounds)
	fmt.Fprintf(&b, "guard: %d fail-safe rounds, %d fallback rounds\n", r.FailsafeRounds, r.FallbackRounds)
	fmt.Fprintf(&b, "reconstruction RMSE: %.2f degC healthy, %.2f degC with stuck sensors\n",
		r.HealthyRMSE, r.StuckRMSE)
	b.WriteString("shape check: fail-safe cooling keeps the blind window cooler than coasting\n")
	return b.String()
}

// RunFaultSensor runs a supervisor-controlled room through a full sensor
// blackout (all nodes dark for two hours, spanning a load surge) and a
// stuck-sensor window, in naive and guarded modes.
func RunFaultSensor(env *Env) (Result, error) {
	const (
		zones      = 4
		perZone    = 50
		supPeriod  = 2 * time.Minute
		alarmC     = 28.0
		targetC    = 26.0
		surgeStart = 2*time.Hour + 20*time.Minute
		surgeEnd   = 5*time.Hour + 10*time.Minute
		stuckAt    = 5 * time.Hour
		horizon    = 7 * time.Hour
	)
	supCRAC := func(name string) cooling.CRACConfig {
		c := cooling.DefaultCRAC(name)
		c.SupplyMaxC = 28
		// The supervisor owns the setpoint: push the unit's internal
		// return-air controller beyond the horizon.
		c.ControlPeriod = 1000 * time.Hour
		return c
	}
	runScenario := func(guarded bool) (SensorScenario, *core.TelemetryGuard, int, float64, float64, error) {
		var s SensorScenario
		var failsafe int
		e := env.NewEngine(env.Seed)
		roomCfg := cooling.RoomConfig{
			CRACs:       []cooling.CRACConfig{supCRAC("c0"), supCRAC("c1")},
			PhysicsTick: cooling.DefaultPhysicsTick,
		}
		for z := 0; z < zones; z++ {
			roomCfg.Zones = append(roomCfg.Zones, cooling.DefaultZone(fmt.Sprintf("z%d", z)))
			// High recirculation (0.65) makes inlets sensitive to load,
			// so blind control has something to get wrong.
			roomCfg.Sensitivity = append(roomCfg.Sensitivity, []float64{0.175, 0.175})
		}
		room, err := cooling.NewRoom(roomCfg)
		if err != nil {
			return s, nil, 0, 0, 0, err
		}
		room.Attach(e)
		srvCfg := server.DefaultConfig()
		blk, err := server.NewBlock(srvCfg, zones*perZone)
		if err != nil {
			return s, nil, 0, 0, 0, err
		}
		servers := blk.Servers()
		for _, sv := range servers {
			sv.PowerOn(e)
		}
		net, err := sensornet.NewNetwork(sensornet.DefaultNetworkConfig(zones), e.RNG().Fork("sensors"))
		if err != nil {
			return s, nil, 0, 0, 0, err
		}
		if err := e.Run(srvCfg.BootDelay + time.Second); err != nil {
			return s, nil, 0, 0, 0, err
		}
		setUtil := func(u float64) {
			now := e.Now()
			for _, sv := range servers {
				sv.SetUtilization(now, u)
			}
		}
		setUtil(0.35)
		e.ScheduleAt(surgeStart, func(*sim.Engine) { setUtil(0.95) })
		e.ScheduleAt(surgeEnd, func(*sim.Engine) { setUtil(0.35) })

		// Physics coupling: heat in, trip protection out.
		s.MaxInletC = math.Inf(-1)
		e.Every(room.PhysicsTick(), func(eng *sim.Engine) {
			now := eng.Now()
			heat := make([]float64, zones)
			for i, sv := range servers {
				sv.Sync(now)
				heat[i/perZone] += sv.Power()
			}
			for z := 0; z < zones; z++ {
				_ = room.SetZoneHeat(z, heat[z])
			}
			for i, sv := range servers {
				sv.ObserveInlet(now, room.ZoneInletC(i/perZone))
			}
			for z := 0; z < zones; z++ {
				s.MaxInletC = math.Max(s.MaxInletC, room.ZoneInletC(z))
			}
		})

		in := fault.NewInjector(e)
		in.WireSensors(net)
		events := make([]fault.Event, 0, zones+2)
		for node := 0; node < zones; node++ {
			events = append(events, fault.Event{
				Kind: fault.SensorDropout, At: 2 * time.Hour, Duration: 2 * time.Hour, Index: node,
			})
		}
		// A later stuck window on half the nodes: delivery looks healthy
		// while the values go stale.
		events = append(events,
			fault.Event{Kind: fault.SensorStuck, At: stuckAt, Duration: 90 * time.Minute, Index: 0},
			fault.Event{Kind: fault.SensorStuck, At: stuckAt, Duration: 90 * time.Minute, Index: 1},
		)
		if err := in.Arm(events); err != nil {
			return s, nil, 0, 0, 0, err
		}

		guard, err := core.NewTelemetryGuard(3)
		if err != nil {
			return s, nil, 0, 0, 0, err
		}
		control := func(estimate []float64) {
			estMax := estimate[0]
			for _, v := range estimate[1:] {
				estMax = math.Max(estMax, v)
			}
			for c := 0; c < room.CRACs(); c++ {
				_ = room.SetCRACSetpoint(c, room.CRACSetpointC(c)+0.6*(targetC-estMax))
			}
		}
		var healthySum, stuckSum float64
		var healthyN, stuckN int
		e.Every(supPeriod, func(eng *sim.Engine) {
			now := eng.Now()
			truth := make([]float64, zones)
			for z := 0; z < zones; z++ {
				truth[z] = room.ZoneInletC(z)
			}
			readings := net.Collect(func(z int) float64 { return truth[z] })
			est, rerr := sensornet.ReconstructMap(readings, zones)
			ok := rerr == nil && len(readings) > 0
			if ok {
				if rmse, err := sensornet.RMSE(est, truth); err == nil {
					switch {
					case now >= time.Hour && now < 2*time.Hour:
						healthySum += rmse
						healthyN++
					case now >= stuckAt+supPeriod && now < stuckAt+90*time.Minute:
						stuckSum += rmse
						stuckN++
					}
				}
			}
			for z := 0; z < zones; z++ {
				if truth[z] > alarmC {
					s.AlarmRounds++
					break
				}
			}
			if guarded {
				m, degraded := guard.Observe(est, ok)
				switch {
				case degraded:
					// Sensors dark too long: fail safe to maximum cooling
					// rather than coasting on a stale picture.
					for c := 0; c < room.CRACs(); c++ {
						_ = room.SetCRACSetpoint(c, supCRAC("").SupplyMinC)
					}
					failsafe++
					s.BlindRounds++
				case ok:
					control(m)
					s.FreshRounds++
				case m != nil:
					control(m)
					s.BlindRounds++
				}
				return
			}
			if ok {
				control(est)
				s.FreshRounds++
			} else {
				s.BlindRounds++ // blind: coast on whatever the setpoints were
			}
		})
		if err := e.Run(horizon); err != nil {
			return s, nil, 0, 0, 0, err
		}
		healthy, stuck := 0.0, 0.0
		if healthyN > 0 {
			healthy = healthySum / float64(healthyN)
		}
		if stuckN > 0 {
			stuck = stuckSum / float64(stuckN)
		}
		return s, guard, failsafe, healthy, stuck, nil
	}
	naive, _, _, healthy, stuck, err := runScenario(false)
	if err != nil {
		return nil, err
	}
	guardedS, guard, failsafe, _, _, err := runScenario(true)
	if err != nil {
		return nil, err
	}
	return FaultSensorResult{
		Naive:          naive,
		Guarded:        guardedS,
		FailsafeRounds: failsafe,
		FallbackRounds: guard.Fallbacks(),
		HealthyRMSE:    healthy,
		StuckRMSE:      stuck,
	}, nil
}
