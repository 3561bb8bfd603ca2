package geo

import (
	"fmt"
	"time"

	"repro/internal/carbon"
	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Site is one federated facility: a complete simulation stack on its
// own engine. Between barriers a site is touched only by the federation
// pool's call that advances it, which also takes the site's barrier
// snapshot at the end of each advance that reaches a barrier; at
// barriers the federation reads the snapshots single-threaded.
type Site struct {
	cfg SiteConfig
	idx int
	fed *Federation

	engine  *sim.Engine
	checker *invariant.Checker
	pool    *par.Pool
	mgr     *core.Manager
	dc      *core.DataCenter
	adm     *workload.Admission
	retry   *workload.RetryLoop
	inj     *fault.Injector
	meter   *carbon.Meter
	srvCfg  server.Config

	// home is the site's home-population login-rate series (users/sec),
	// already scaled by the normalized population share.
	home *trace.Series
	// weight is the routing weight for the current epoch. Written only
	// at barriers (all engines paused), read inside manager ticks and by
	// the next barrier snapshot; the federation pool's RunRanges call
	// around each epoch orders the accesses.
	weight float64
	// staticW is the fixed population-share weight (RouteStatic).
	staticW float64
	// lastEnergyJ remembers the previous barrier's cumulative energy so
	// stats can report per-epoch deltas.
	lastEnergyJ float64
	// snap is the site's snapshot at the latest barrier, written by runTo
	// and read by the federation's barrier once every site has reported.
	snap SiteStats
}

// advance is one step of a site: run its engine to the instant to, and
// take the barrier snapshot there when to is an epoch barrier. The
// federation decides both, so a site's advance never reads the
// federation's clock.
type advance struct {
	to      time.Duration
	barrier bool
}

// newSite builds one site's full stack. Seeds derive from the
// federation seed through a labelled RNG fork per site name, so site
// streams are independent of each other and of the global trace.
func newSite(fed *Federation, idx int, cfg SiteConfig, home *trace.Series, staticW float64) (_ *Site, err error) {
	seed := sim.NewRNG(fed.cfg.Seed).Fork("geo/site/" + cfg.Name).Int63()
	s := &Site{
		cfg:     cfg,
		idx:     idx,
		fed:     fed,
		engine:  sim.NewEngine(seed),
		home:    home,
		weight:  staticW,
		staticW: staticW,
		srvCfg:  server.DefaultConfig(),
	}
	if fed.cfg.Invariants {
		s.checker = invariant.NewChecker()
		s.checker.Attach(s.engine)
	}
	s.pool = par.New(fed.cfg.SiteWorkers)
	defer func() {
		if err != nil {
			s.pool.Close() // the federation never sees a site that failed to build
		}
	}()

	mcfg := core.ManagerConfig{
		ServerConfig:   s.srvCfg,
		FleetSize:      cfg.FleetSize,
		Queue:          workload.DefaultQueueModel(),
		SLA:            100 * time.Millisecond,
		DecisionPeriod: fed.cfg.Tick,
		Mode:           core.ModeCoordinated,
		InitialOn:      cfg.FleetSize / 2,
		ClassDemand:    s.classDemand,
		Pool:           s.pool,
	}
	adm, err := workload.NewAdmission(workload.DefaultAdmissionConfig())
	if err != nil {
		return nil, fmt.Errorf("geo: site %s: %w", cfg.Name, err)
	}
	s.adm = adm
	if cfg.Retry {
		rcfg := workload.DefaultRetryConfig(workload.RetryBudget)
		rcfg.Breaker = workload.DefaultBreakerConfig()
		if cfg.RetryConfig != nil {
			rcfg = *cfg.RetryConfig
		}
		rl, err := workload.NewRetryLoop(rcfg, adm, s.engine.RNG().Fork("geo/retry"))
		if err != nil {
			return nil, fmt.Errorf("geo: site %s: %w", cfg.Name, err)
		}
		s.retry = rl
		mcfg.Retry = rl
	} else {
		mcfg.Admission = adm
	}

	if cfg.Facility {
		dc, err := buildFacility(s.engine, cfg.Name, s.srvCfg, cfg.FleetSize, fed.cfg.Epoch, s.pool)
		if err != nil {
			return nil, fmt.Errorf("geo: site %s: %w", cfg.Name, err)
		}
		if _, err := dc.Attach(); err != nil {
			return nil, fmt.Errorf("geo: site %s: %w", cfg.Name, err)
		}
		s.dc = dc
		s.mgr, err = core.NewManagerForFleet(s.engine, mcfg, dc.Fleet(), nil)
		if err != nil {
			return nil, fmt.Errorf("geo: site %s: %w", cfg.Name, err)
		}
	} else {
		s.mgr, err = core.NewManager(s.engine, mcfg, nil)
		if err != nil {
			return nil, fmt.Errorf("geo: site %s: %w", cfg.Name, err)
		}
	}
	s.mgr.Start()

	if len(cfg.Faults) > 0 {
		s.inj = fault.NewInjector(s.engine)
		s.inj.Subscribe(s.mgr.OnNotice)
		if err := s.inj.Arm(cfg.Faults); err != nil {
			return nil, fmt.Errorf("geo: site %s: %w", cfg.Name, err)
		}
	}

	meter, err := carbon.NewMeter(cfg.Carbon)
	if err != nil {
		return nil, fmt.Errorf("geo: site %s: %w", cfg.Name, err)
	}
	s.meter = meter
	// Anchor the meter at local time zero so the first barrier accrues
	// from the run start.
	if err := meter.Observe(cfg.TZOffset, 0); err != nil {
		return nil, fmt.Errorf("geo: site %s: %w", cfg.Name, err)
	}
	return s, nil
}

// classDemand is the site manager's fresh-arrival source: the routed
// share of the pooled global login rate (or the home series under
// RouteHome), batched into the tick and split across classes.
func (s *Site) classDemand(now time.Duration) [workload.NumClasses]float64 {
	var rate float64
	switch s.fed.cfg.Mode {
	case RouteHome:
		rate = s.home.At(now)
	case RouteStatic:
		rate = s.staticW * s.fed.global.At(now)
	default: // RouteWeighted
		rate = s.weight * s.fed.global.At(now)
	}
	var fresh [workload.NumClasses]float64
	workload.DefaultClassMix().Split(workload.UsersPerTick(rate, s.fed.cfg.Tick), &fresh)
	return fresh
}

// runTo advances the site's engine to a.to and, when a.to is an epoch
// barrier, takes the site's barrier snapshot there, into snap. The
// federation pool calls it on a worker, or inline in site order; either
// way the snapshot reads only the site's own state. Panics from the
// stack under it become errors naming the site, so AdvanceTo reports a
// panicking site like any other failing one instead of crashing.
func (s *Site) runTo(a advance) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("geo: site %s panicked: %v", s.cfg.Name, r)
		}
	}()
	if err := s.engine.Run(a.to); err != nil {
		return fmt.Errorf("geo: site %s: %w", s.cfg.Name, err)
	}
	if a.barrier {
		s.snap = s.stats(a.to)
	}
	return nil
}

// nominalInletC anchors the thermal-headroom scale: headroom is 1 at or
// below this supply temperature and 0 at the server trip threshold.
const nominalInletC = 25.0

// stats snapshots the site's barrier aggregates at time now, after the
// engine has reached now. It runs on whichever goroutine advanced the
// site (see runTo) and reads only the site's own state plus its routing
// weight, which the previous barrier wrote before the federation pool
// started this advance, so the pool's hand-off orders the two. Its
// Fleet.Sync writes only the servers that are not Off.
func (s *Site) stats(now time.Duration) SiteStats {
	fleet := s.mgr.Fleet()
	fleet.Sync(now)
	st := SiteStats{
		Name:            s.cfg.Name,
		Weight:          s.routeWeight(),
		PowerW:          fleet.PowerW(),
		EnergyJ:         fleet.EnergyJ(),
		FleetSize:       fleet.Size(),
		On:              fleet.OnCount(),
		Active:          fleet.ActiveCount(),
		Q:               s.adm.Q(),
		ShedLevel:       s.adm.ShedLevel(),
		CapFactor:       s.mgr.CapacityFactor(),
		ThermalHeadroom: 1,
		CarbonIntensity: s.cfg.Carbon.IntensityAt(now + s.cfg.TZOffset),
		Offered:         s.adm.OfferedUsers(),
		Rejected:        s.adm.RejectedUsers(),
		Trips:           fleet.Trips(),
		At:              now,
	}
	st.EpochEnergyJ = st.EnergyJ - s.lastEnergyJ
	s.lastEnergyJ = st.EnergyJ
	if s.retry != nil {
		st.Breaker = s.retry.State()
		st.Goodput = s.retry.GoodputUsers()
		st.InRetry = s.retry.InRetryTotal()
		st.BreakerTrips = s.retry.Trips()
	} else {
		st.Goodput = s.adm.AdmittedUsers()
	}
	if s.dc != nil {
		room := s.dc.Room()
		maxInlet := 0.0
		for z := 0; z < room.Zones(); z++ {
			if c := room.ZoneInletC(z); c > maxInlet {
				maxInlet = c
			}
		}
		trip := s.srvCfg.TripTempC
		st.ThermalHeadroom = clamp01((trip - maxInlet) / (trip - nominalInletC))
	}
	return st
}

// routeWeight is the effective share of pooled demand this site serves
// under the federation's mode.
func (s *Site) routeWeight() float64 {
	switch s.fed.cfg.Mode {
	case RouteStatic:
		return s.staticW
	case RouteWeighted:
		return s.weight
	default:
		return s.staticW // RouteHome: the home share, for reporting
	}
}

// Accessors for telemetry surfaces (internal/serve) and tests. All are
// safe only while the federation is paused (between AdvanceTo calls).

// Name returns the site name.
func (s *Site) Name() string { return s.cfg.Name }

// Engine returns the site's event kernel.
func (s *Site) Engine() *sim.Engine { return s.engine }

// Manager returns the site's MRM manager.
func (s *Site) Manager() *core.Manager { return s.mgr }

// Fleet returns the site's server pool.
func (s *Site) Fleet() *core.Fleet { return s.mgr.Fleet() }

// DC returns the site's facility substrate (nil without Facility).
func (s *Site) DC() *core.DataCenter { return s.dc }

// Admission returns the site's admission controller.
func (s *Site) Admission() *workload.Admission { return s.adm }

// Retry returns the site's retry loop (nil without Retry).
func (s *Site) Retry() *workload.RetryLoop { return s.retry }

// Weight reports the site's current routing weight.
func (s *Site) Weight() float64 { return s.routeWeight() }

// Grams reports the site's cumulative emissions (gCO2e).
func (s *Site) Grams() float64 { return s.meter.Grams() }

// CarbonModel returns the site's grid-intensity model.
func (s *Site) CarbonModel() carbon.Model { return s.cfg.Carbon }

// TZOffset returns the site's time-zone offset.
func (s *Site) TZOffset() time.Duration { return s.cfg.TZOffset }

// buildFacility constructs the standard federated-site facility: 20
// racks over 2 UPS × 2 PDU × 5 racks, four cooling zones with two CRAC
// units, airflow scaled to the fleet, and telemetry sampling on the
// epoch cadence.
func buildFacility(e *sim.Engine, name string, srvCfg server.Config, fleetSize int, sampleEvery time.Duration, pool *par.Pool) (*core.DataCenter, error) {
	perRack := fleetSize / facilityRacks
	airScale := float64(fleetSize) / 40
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 2_000 * airScale
	zoneOfRack := make([]int, facilityRacks)
	for r := range zoneOfRack {
		zoneOfRack[r] = r % 4
	}
	return core.NewDataCenter(e, core.DataCenterConfig{
		Name:           "geo-" + name,
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 2, PDUsPerUPS: 2, RacksPerPDU: 5,
			RackRatedW: float64(perRack) * srvCfg.PeakPower * 1.05, Oversubscription: 1,
		},
		Room:        cooling.FourZoneConfig(airScale),
		ZoneOfRack:  zoneOfRack,
		Plant:       plant,
		SampleEvery: sampleEvery,
		Pool:        pool,
	})
}
