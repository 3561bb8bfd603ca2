package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/onoff"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// pathology — oblivious DVFS × on/off composition (§5.1, after [29])
// ---------------------------------------------------------------------------

// PathologyRow is one policy mode's outcome.
type PathologyRow struct {
	Mode          core.PolicyMode
	EnergyKWh     float64
	MeanActive    float64
	Switches      int
	ViolationRate float64
	WorstResponse time.Duration
}

// PathologyResult compares the five policy compositions on the same
// diurnal workload.
type PathologyResult struct {
	Rows []PathologyRow
}

// ID implements Result.
func (PathologyResult) ID() string { return "pathology" }

// Report implements Result.
func (r PathologyResult) Report() string {
	var b strings.Builder
	b.WriteString(header("pathology", "oblivious DVFS+on/off composition wastes energy (§5.1)"))
	b.WriteString("mode         energy_kWh  mean_active  switches  sla_viol  worst_resp\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10.2f  %11.1f  %8d  %8.3f  %10v\n",
			row.Mode, row.EnergyKWh, row.MeanActive, row.Switches,
			row.ViolationRate, row.WorstResponse.Round(time.Millisecond))
	}
	b.WriteString("shape check: oblivious > {dvfs-only, onoff-only}; coordinated <= all\n")
	return b.String()
}

// pathologyManagerConfig is the shared scenario for all modes. initialOn
// is the starting (and, for DVFS-only, permanent) active count.
func pathologyManagerConfig(mode core.PolicyMode, fleet, initialOn int) core.ManagerConfig {
	return core.ManagerConfig{
		ServerConfig:   server.DefaultConfig(),
		FleetSize:      fleet,
		Queue:          workload.DefaultQueueModel(),
		SLA:            100 * time.Millisecond,
		DecisionPeriod: time.Minute,
		Mode:           mode,
		DVFSTarget:     0.8,
		Trigger: onoff.DelayTrigger{
			High: 60 * time.Millisecond, Low: 25 * time.Millisecond,
			StepUp: 1, StepDown: 1, Min: 1, Max: fleet,
		},
		InitialOn: initialOn,
	}
}

// RunPathology runs all five modes on a 3-day diurnal demand.
func RunPathology(env *Env) (Result, error) {
	seed := env.Seed
	const fleet = 40
	srv := server.DefaultConfig()
	demand := func(now time.Duration) float64 {
		h := now.Hours() - 24*float64(int(now.Hours()/24))
		frac := 0.15 + 0.35*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
		return frac * fleet * srv.Capacity
	}
	// DVFS-only keeps a fixed fleet, so it must be sized for the peak
	// (ceil(peak / (capacity × 0.8)) with the 100 ms SLA's ρmax = 0.8);
	// the elastic modes start at a quarter of the fleet.
	peakOffered := 0.5 * fleet * srv.Capacity
	peakSized := int(math.Ceil(peakOffered / (srv.Capacity * 0.8)))
	var res PathologyResult
	for _, mode := range []core.PolicyMode{
		core.ModeAlwaysOn, core.ModeOnOffOnly, core.ModeDVFSOnly,
		core.ModeOblivious, core.ModeCoordinated,
	} {
		initialOn := fleet / 4
		if mode == core.ModeDVFSOnly {
			initialOn = peakSized
		}
		e := env.NewEngine(seed)
		m, err := core.NewManager(e, pathologyManagerConfig(mode, fleet, initialOn), demand)
		if err != nil {
			return nil, err
		}
		m.Start()
		const horizon = 3 * 24 * time.Hour
		if err := e.Run(horizon); err != nil {
			return nil, err
		}
		rr := m.Result(horizon)
		res.Rows = append(res.Rows, PathologyRow{
			Mode:          mode,
			EnergyKWh:     rr.EnergyKWh,
			MeanActive:    rr.MeanActive,
			Switches:      rr.SwitchOns + rr.SwitchOffs,
			ViolationRate: rr.SLAViolationRate,
			WorstResponse: rr.WorstResponse,
		})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// dvfs — control-based DVFS holds response time (§4.2, after [21])
// ---------------------------------------------------------------------------

// DVFSResult compares feedback DVFS against always-fastest on one server
// under a diurnal load.
type DVFSResult struct {
	BaselineKWh   float64
	FeedbackKWh   float64
	EnergySaving  float64
	ViolationRate float64
	MeanPState    float64
}

// ID implements Result.
func (DVFSResult) ID() string { return "dvfs" }

// Report implements Result.
func (r DVFSResult) Report() string {
	var b strings.Builder
	b.WriteString(header("dvfs", "control-based DVFS with response-time setpoint (§4.2)"))
	fmt.Fprintf(&b, "always-fastest: %.3f kWh; feedback DVFS: %.3f kWh (%.0f%% saved)\n",
		r.BaselineKWh, r.FeedbackKWh, r.EnergySaving*100)
	fmt.Fprintf(&b, "SLA violation rate under feedback: %.3f; mean p-state index: %.2f\n",
		r.ViolationRate, r.MeanPState)
	return b.String()
}

// RunDVFS runs a single server's closed loop for 24 hours.
func RunDVFS(env *Env) (Result, error) {
	seed := env.Seed
	cfg := server.DefaultConfig()
	q := workload.DefaultQueueModel()
	const sla = 120 * time.Millisecond
	load := func(now time.Duration) float64 {
		h := now.Hours() - 24*float64(int(now.Hours()/24))
		return cfg.Capacity * (0.15 + 0.35*0.5*(1+math.Cos(2*math.Pi*(h-14)/24)))
	}

	run := func(useFeedback bool) (kwh float64, violRate float64, meanPState float64, err error) {
		e := env.NewEngine(seed)
		s, err := server.New(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		s.PowerOn(e)
		if err := e.Run(cfg.BootDelay); err != nil {
			return 0, 0, 0, err
		}
		var policy *dvfs.ResponseFeedback
		if useFeedback {
			policy, err = dvfs.NewResponseFeedback(cfg.PStates, sla, 1.0)
			if err != nil {
				return 0, 0, 0, err
			}
		}
		var viol, ticks, stateSum int
		e.Every(time.Minute, func(eng *sim.Engine) {
			now := eng.Now()
			offered := load(now)
			cap := s.AvailableCapacity()
			rho := 1.0
			if cap > 0 {
				rho = math.Min(1, offered/cap)
			}
			s.SetUtilization(now, rho)
			resp := q.Response(rho)
			if resp > sla {
				viol++
			}
			ticks++
			stateSum += s.PStateIndex()
			if policy != nil {
				idx := policy.Decide(resp, time.Minute)
				if err := s.SetPState(now, idx); err != nil {
					panic(err) // ladder indexes are valid by construction
				}
			}
		})
		horizon := 24*time.Hour + cfg.BootDelay
		if err := e.Run(horizon); err != nil {
			return 0, 0, 0, err
		}
		s.Sync(horizon)
		return s.EnergyJ() / 3.6e6, float64(viol) / float64(ticks), float64(stateSum) / float64(ticks), nil
	}

	baseKWh, _, _, err := run(false)
	if err != nil {
		return nil, err
	}
	fbKWh, viol, meanPS, err := run(true)
	if err != nil {
		return nil, err
	}
	return DVFSResult{
		BaselineKWh:   baseKWh,
		FeedbackKWh:   fbKWh,
		EnergySaving:  1 - fbKWh/baseKWh,
		ViolationRate: viol,
		MeanPState:    meanPS,
	}, nil
}

// ---------------------------------------------------------------------------
// crac — CRAC sensitivity migration hazard (§5.1, after [30])
// ---------------------------------------------------------------------------

// CRACResult contrasts a sensitivity-oblivious migration (shift all load
// to the poorly-regulated zone B and shut zone A down) with a
// sensitivity-aware MRM decision (keep the load in the well-regulated
// zone A).
type CRACResult struct {
	NaiveMaxInletB float64
	NaiveTrips     int
	AwareMaxInlet  float64
	AwareTrips     int
	SupplyRiseC    float64 // how much the CRAC relaxed after A emptied
}

// ID implements Result.
func (CRACResult) ID() string { return "crac" }

// Report implements Result.
func (r CRACResult) Report() string {
	var b strings.Builder
	b.WriteString(header("crac", "CRAC-sensitivity-oblivious migration risks thermal alarms (§5.1)"))
	fmt.Fprintf(&b, "naive migration A->B:  zone-B inlet peaks %.1f degC, thermal trips: %d\n",
		r.NaiveMaxInletB, r.NaiveTrips)
	fmt.Fprintf(&b, "sensitivity-aware MRM: hottest inlet %.1f degC, thermal trips: %d\n",
		r.AwareMaxInlet, r.AwareTrips)
	fmt.Fprintf(&b, "CRAC supply relaxed by %.1f degC after its sensitive zone emptied\n", r.SupplyRiseC)
	return b.String()
}

// crackServers builds 2×n servers, n per zone, and returns them. The
// protective trip threshold is a realistic 33 °C inlet (ASHRAE max is
// 25 °C; protection engages well above the envelope).
func crackServers(e *sim.Engine, n int) ([]*server.Server, error) {
	cfg := server.DefaultConfig()
	cfg.Name, cfg.TripTempC = "srv", 33
	b, err := server.NewBlock(cfg, 2*n)
	if err != nil {
		return nil, err
	}
	out := b.Servers()
	for _, s := range out {
		s.PowerOn(e)
	}
	return out, nil
}

// RunCRAC reproduces the §5.1 scenario end to end with real servers that
// trip.
func RunCRAC(env *Env) (Result, error) {
	seed := env.Seed
	const perZone = 100
	runScenario := func(migrate bool) (maxInletB, maxInletAny, supplyRise float64, trips int, err error) {
		e := env.NewEngine(seed)
		room, err := cooling.TwoZoneRoom(0.85, 0.35)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		room.Attach(e)
		servers, err := crackServers(e, perZone)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if err := e.Run(2 * time.Minute); err != nil { // boot
			return 0, 0, 0, 0, err
		}
		// Phase 1: heavy load in zone A (servers 0..perZone-1), light in B.
		setLoad := func(now time.Duration, aU, bU float64) {
			for i, s := range servers {
				if i < perZone {
					s.SetUtilization(now, aU)
				} else {
					s.SetUtilization(now, bU)
				}
			}
		}
		setLoad(e.Now(), 0.9, 0.10)
		migrated := false
		supplyBefore := 0.0
		// Coupling loop: heat in, inlets out, trips counted.
		e.Every(room.PhysicsTick(), func(eng *sim.Engine) {
			now := eng.Now()
			var heatA, heatB float64
			for i, s := range servers {
				s.Sync(now)
				if i < perZone {
					heatA += s.Power()
				} else {
					heatB += s.Power()
				}
			}
			_ = room.SetZoneHeat(0, heatA)
			_ = room.SetZoneHeat(1, heatB)
			for i, s := range servers {
				zone := 0
				if i >= perZone {
					zone = 1
				}
				if s.ObserveInlet(now, room.ZoneInletC(zone)) {
					trips++
				}
			}
			inB := room.ZoneInletC(1)
			if inB > maxInletB {
				maxInletB = inB
			}
			if inA := room.ZoneInletC(0); inA > maxInletAny {
				maxInletAny = inA
			}
			if inB > maxInletAny {
				maxInletAny = inB
			}
		})
		// Phase 2 at t=4h: the migration decision.
		e.At(4*time.Hour, func(eng *sim.Engine) {
			supplyBefore = room.CRACSetpointC(0)
			if migrate {
				// Naive: move everything to B, shut A down.
				now := eng.Now()
				for i, s := range servers {
					if i < perZone {
						s.SetUtilization(now, 0)
						s.PowerOff(eng)
					} else {
						s.SetUtilization(now, 0.95)
					}
				}
				migrated = true
			}
			// Aware: keep load in the well-regulated zone A (no-op).
		})
		if err := e.Run(12 * time.Hour); err != nil {
			return 0, 0, 0, 0, err
		}
		_ = migrated
		supplyRise = room.CRACSetpointC(0) - supplyBefore
		return maxInletB, maxInletAny, supplyRise, trips, nil
	}

	nb, _, rise, ntrips, err := runScenario(true)
	if err != nil {
		return nil, err
	}
	_, aAny, _, atrips, err := runScenario(false)
	if err != nil {
		return nil, err
	}
	return CRACResult{
		NaiveMaxInletB: nb,
		NaiveTrips:     ntrips,
		AwareMaxInlet:  aAny,
		AwareTrips:     atrips,
		SupplyRiseC:    rise,
	}, nil
}
