package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/control"
	"repro/internal/dvfs"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/onoff"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PolicyMode selects how the manager composes power-management knobs.
type PolicyMode int

// Policy modes. The first three are single-knob baselines; Oblivious is
// the §5.1 hazard (independent DVFS and on/off loops reacting to each
// other's side effects); Coordinated is the MRM fix (one joint decision).
const (
	ModeAlwaysOn PolicyMode = iota + 1
	ModeOnOffOnly
	ModeDVFSOnly
	ModeOblivious
	ModeCoordinated
)

// String renders the mode.
func (m PolicyMode) String() string {
	switch m {
	case ModeAlwaysOn:
		return "always-on"
	case ModeOnOffOnly:
		return "onoff-only"
	case ModeDVFSOnly:
		return "dvfs-only"
	case ModeOblivious:
		return "oblivious"
	case ModeCoordinated:
		return "coordinated"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DemandFunc reports the offered load (capacity units/second) at a
// virtual time.
type DemandFunc func(now time.Duration) float64

// ManagerConfig configures a manager run.
type ManagerConfig struct {
	// ServerConfig is the homogeneous server model.
	ServerConfig server.Config
	// FleetSize is the total number of machines.
	FleetSize int
	// Queue maps utilization to response time.
	Queue workload.QueueModel
	// SLA is the response-time target.
	SLA time.Duration
	// DecisionPeriod is how often the manager acts.
	DecisionPeriod time.Duration
	// Mode selects the policy composition.
	Mode PolicyMode
	// DVFSTarget is the threshold governor's utilization target
	// (ModeDVFSOnly and ModeOblivious).
	DVFSTarget float64
	// Trigger is the naive delay-threshold on/off policy
	// (ModeOnOffOnly and ModeOblivious).
	Trigger onoff.DelayTrigger
	// InitialOn is the starting active count.
	InitialOn int
	// Record enables per-decision sampling for plots.
	Record bool
	// Admission, when set, runs batched request-level admission control
	// ahead of dispatch: each tick the fresh per-class arrivals from
	// ClassDemand are admitted against the active capacity, and only the
	// admitted load (in capacity units) reaches the fleet. Requires
	// ClassDemand; the aggregate demand function may then be nil.
	Admission *workload.Admission
	// ClassDemand reports the fresh per-class user arrivals of the tick
	// ending at now. Required with Admission or Retry, ignored without.
	ClassDemand func(now time.Duration) [workload.NumClasses]float64
	// Retry, when set, runs closed-loop admission: the retry loop (which
	// wraps its own Admission) ticks ahead of dispatch, so rejected and
	// SLO-missed users come back as retry-inflated demand and capacity
	// planning sees what actually hits the front door. Mutually
	// exclusive with Admission; requires ClassDemand.
	Retry *workload.RetryLoop
	// Pool, when non-nil, executes the fleet's sharded per-tick loops
	// (capacity scan, dispatch application) on its workers. Ignored by
	// NewManagerForFleet when the caller's fleet already carries a pool
	// (e.g. one installed by its DataCenter).
	Pool *par.Pool
}

// Validate checks the configuration.
func (c ManagerConfig) Validate() error {
	if err := c.ServerConfig.Validate(); err != nil {
		return err
	}
	if c.FleetSize <= 0 {
		return fmt.Errorf("core: fleet size %d must be positive", c.FleetSize)
	}
	if err := c.Queue.Validate(); err != nil {
		return err
	}
	if c.SLA <= 0 {
		return fmt.Errorf("core: SLA %v must be positive", c.SLA)
	}
	if c.DecisionPeriod <= 0 {
		return fmt.Errorf("core: decision period %v must be positive", c.DecisionPeriod)
	}
	switch c.Mode {
	case ModeAlwaysOn, ModeOnOffOnly, ModeDVFSOnly, ModeOblivious, ModeCoordinated:
	default:
		return fmt.Errorf("core: unknown mode %v", c.Mode)
	}
	if c.Mode == ModeDVFSOnly || c.Mode == ModeOblivious {
		if c.DVFSTarget <= 0 || c.DVFSTarget > 1 {
			return fmt.Errorf("core: DVFS target %v out of (0,1]", c.DVFSTarget)
		}
	}
	if c.Mode == ModeOnOffOnly || c.Mode == ModeOblivious {
		if err := c.Trigger.Validate(); err != nil {
			return err
		}
	}
	if c.InitialOn < 0 || c.InitialOn > c.FleetSize {
		return fmt.Errorf("core: initial on %d out of [0,%d]", c.InitialOn, c.FleetSize)
	}
	if c.Retry != nil && c.Admission != nil {
		return fmt.Errorf("core: Retry already wraps an admission controller; set one of Retry and Admission")
	}
	if (c.Admission != nil || c.Retry != nil) != (c.ClassDemand != nil) {
		return fmt.Errorf("core: admission/retry controller and class demand must be set together")
	}
	return nil
}

// Sample is one recorded decision instant.
type Sample struct {
	At       time.Duration
	Offered  float64
	Active   int
	PState   int
	PowerW   float64
	Response time.Duration
	Dropped  float64
}

// RunResult summarizes a manager run.
type RunResult struct {
	Mode PolicyMode
	// EnergyKWh is the fleet energy over the run.
	EnergyKWh float64
	// SLAViolationRate is the fraction of decisions above the SLA.
	SLAViolationRate float64
	// WorstResponse is the worst observed response.
	WorstResponse time.Duration
	// SwitchOns / SwitchOffs count power transitions (oscillation).
	SwitchOns, SwitchOffs int
	// MeanActive is the average active server count.
	MeanActive float64
	// DroppedFraction is dropped load over offered load.
	DroppedFraction float64
	// Samples holds per-decision detail when recording was enabled.
	Samples []Sample
	// Users summarizes request-level outcomes when the run had an
	// admission controller (nil otherwise). A pointer keeps it out of
	// the reflection-flattened metric set of fluid-only experiments.
	Users *UserOutcomes
}

// UserOutcomes is the user-visible side of a managed run: what happened
// to the people behind the load curve while the power side actuated.
type UserOutcomes struct {
	// Offered is cumulative pool arrivals (retry re-presentations
	// included when a retry loop runs); Admitted, Rejected, and the
	// closing DeferredBacklog partition it.
	Offered, Admitted, Rejected, DeferredBacklog float64
	// Degraded counts admitted users served below full quality.
	Degraded float64
	// SLOMissRate is, per class, the fraction of its active ticks whose
	// Erlang-C expected wait exceeded the class SLO.
	SLOMissRate [workload.NumClasses]float64
	// Fresh, Retried, Abandoned, Goodput, InRetry,
	// RetryAmplification, and BreakerTrips describe the closed loop
	// and are populated only when the run used a retry loop: first
	// arrivals, cumulative retry re-arrivals, users who gave up,
	// completed users (admitted net of SLO re-entries), users still
	// waiting to retry at run end, total attempts over fresh arrivals,
	// and circuit-breaker openings. Fresh == Goodput + Abandoned +
	// InRetry + DeferredBacklog at any instant.
	Fresh, Retried, Abandoned, Goodput, InRetry float64
	RetryAmplification                          float64
	BreakerTrips                                int64
}

// Manager is the closed-loop macro-resource manager over one fleet.
type Manager struct {
	cfg    ManagerConfig
	fleet  *Fleet
	engine *sim.Engine
	demand DemandFunc

	governor *dvfs.Threshold
	joint    *JointOptimizer
	sla      *metrics.SLAAccumulator
	// demandFc forecasts offered load so the coordinated mode can
	// pre-boot servers across the boot delay (capacity ordered now
	// arrives only after BootDelay).
	demandFc  *control.Holt
	lookahead int

	decisions    int64
	activeSum    int64
	offeredTotal float64
	droppedTotal float64
	samples      []Sample
	lastResp     time.Duration
	curPState    int
	lastOut      workload.TickOutcome
	lastROut     workload.RetryOutcome
	// capFactor scales the serving capacity the admission layer sees; a
	// CapacityDip fault notice drops it below 1 until the dip reverts.
	capFactor float64
}

// NewManager builds the manager and its fleet on the engine.
func NewManager(e *sim.Engine, cfg ManagerConfig, demand DemandFunc) (*Manager, error) {
	fleet, err := NewFleet(e, cfg.ServerConfig, cfg.FleetSize)
	if err != nil {
		return nil, err
	}
	return NewManagerForFleet(e, cfg, fleet, demand)
}

// NewManagerForFleet builds the manager over an existing fleet (e.g. one
// assembled inside a DataCenter, so decisions feed the power tree and the
// cooling room). cfg.FleetSize must match the fleet.
func NewManagerForFleet(e *sim.Engine, cfg ManagerConfig, fleet *Fleet, demand DemandFunc) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if demand == nil && cfg.Admission == nil && cfg.Retry == nil {
		return nil, fmt.Errorf("core: nil demand function")
	}
	if fleet == nil || fleet.Size() != cfg.FleetSize {
		return nil, fmt.Errorf("core: fleet size mismatch with config %d", cfg.FleetSize)
	}
	if cfg.Pool != nil && fleet.Pool() == nil {
		fleet.SetParallel(cfg.Pool)
	}
	m := &Manager{cfg: cfg, fleet: fleet, engine: e, demand: demand}
	var err error
	m.sla, err = metrics.NewSLAAccumulator(cfg.SLA)
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeDVFSOnly || cfg.Mode == ModeOblivious {
		m.governor, err = dvfs.NewThreshold(cfg.ServerConfig.PStates, cfg.DVFSTarget)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Mode == ModeCoordinated {
		m.joint, err = NewJointOptimizer(cfg.ServerConfig, cfg.Queue, cfg.SLA, cfg.FleetSize)
		if err != nil {
			return nil, err
		}
		m.demandFc, err = control.NewHolt(0.6, 0.3)
		if err != nil {
			return nil, err
		}
		m.lookahead = int(math.Ceil(float64(cfg.ServerConfig.BootDelay)/float64(cfg.DecisionPeriod))) + 1
	}
	m.lastResp = cfg.Queue.ServiceTime
	m.capFactor = 1
	if cfg.Admission != nil {
		// The invariant checker picks the controller up through its
		// Checkable interface: user conservation is scanned with the
		// physical laws.
		e.Register(cfg.Admission)
	}
	if cfg.Retry != nil {
		// Both ledgers ride the checker: the pool's open-loop partition
		// and the closed loop's extended conservation.
		e.Register(cfg.Retry)
		e.Register(cfg.Retry.Admission())
	}
	return m, nil
}

// Fleet exposes the managed fleet.
func (m *Manager) Fleet() *Fleet { return m.fleet }

// Admission exposes the request-level admission controller — the retry
// loop's wrapped pool when the run is closed-loop — or nil when the run
// is fluid-only.
func (m *Manager) Admission() *workload.Admission {
	if m.cfg.Retry != nil {
		return m.cfg.Retry.Admission()
	}
	return m.cfg.Admission
}

// Retry exposes the closed-loop retry controller (nil without one).
func (m *Manager) Retry() *workload.RetryLoop { return m.cfg.Retry }

// LastOutcome reports the most recent admission tick (zero value before
// the first tick or without admission control).
func (m *Manager) LastOutcome() workload.TickOutcome { return m.lastOut }

// LastRetryOutcome reports the most recent closed-loop tick (zero value
// before the first tick or without a retry loop).
func (m *Manager) LastRetryOutcome() workload.RetryOutcome { return m.lastROut }

// SetCapacityFactor scales the serving capacity the admission layer
// sees, clamped to [0,1]. 1 is nominal; a CapacityDip fault drives it
// down. No-op on fluid-only runs (dispatch capacity is unaffected:
// the dip models software serving capacity, not rack power).
func (m *Manager) SetCapacityFactor(f float64) {
	if math.IsNaN(f) || f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	m.capFactor = f
}

// CapacityFactor reports the current serving-capacity scale.
func (m *Manager) CapacityFactor() float64 { return m.capFactor }

// OnNotice is a fault.Listener: subscribe it to an Injector so
// CapacityDip events scale the admission layer's capacity view for the
// dip's duration.
func (m *Manager) OnNotice(e *sim.Engine, n fault.Notice) {
	if n.Kind != fault.CapacityDip {
		return
	}
	if n.Start {
		m.SetCapacityFactor(1 - n.Frac)
	} else {
		m.SetCapacityFactor(1)
	}
}

// Mode reports the policy composition the manager is running.
func (m *Manager) Mode() PolicyMode { return m.cfg.Mode }

// Decisions reports how many decision cycles have run so far.
func (m *Manager) Decisions() int64 { return m.decisions }

// SLAViolationRate reports the running fraction of decisions whose
// observed response exceeded the SLA.
func (m *Manager) SLAViolationRate() float64 { return m.sla.ViolationRate() }

// WorstResponse reports the worst response observed so far.
func (m *Manager) WorstResponse() time.Duration { return m.sla.Worst() }

// PState reports the fleet-wide DVFS operating point last actuated.
func (m *Manager) PState() int { return m.curPState }

// Start boots the initial servers and schedules the decision loop,
// returning its handle.
func (m *Manager) Start() sim.Handle {
	m.fleet.SetTarget(m.cfg.InitialOn)
	return m.engine.Every(m.cfg.DecisionPeriod, func(e *sim.Engine) { m.tick(e.Now()) })
}

// tick runs one observe→decide→actuate cycle.
func (m *Manager) tick(now time.Duration) {
	var offered float64
	// planDemand is what capacity planning sees. With admission control
	// it is the pre-admission demand — the controller must plan for the
	// users it had to turn away, or the fleet never grows out of a
	// rejection regime. Without admission it equals offered.
	planDemand := -1.0
	if rl := m.cfg.Retry; rl != nil {
		classes := m.cfg.ClassDemand(now)
		rout := rl.Tick(m.cfg.DecisionPeriod, &classes, float64(m.fleet.ActiveCount())*m.capFactor)
		m.lastROut = rout
		m.lastOut = rout.Pool
		offered = rout.Pool.AdmittedErl * m.cfg.ServerConfig.Capacity
		// Plan on the retry-inflated arrival stream — fresh plus retries
		// plus what the breaker fast-failed — or the fleet never grows
		// out of the storm it is feeding.
		planDemand = rout.OfferedErl * m.cfg.ServerConfig.Capacity
	} else if adm := m.cfg.Admission; adm != nil {
		classes := m.cfg.ClassDemand(now)
		out := adm.Tick(m.cfg.DecisionPeriod, &classes, float64(m.fleet.ActiveCount())*m.capFactor)
		m.lastOut = out
		offered = out.AdmittedErl * m.cfg.ServerConfig.Capacity
		planDemand = out.DemandErl * m.cfg.ServerConfig.Capacity
	} else {
		offered = m.demand(now)
	}
	if offered < 0 {
		offered = 0
	}

	// Observe: dispatch current load over current capacity and measure.
	dropped, maxU := m.fleet.Dispatch(now, offered)
	resp := m.cfg.Queue.Response(maxU)
	if dropped > 0 {
		resp = m.cfg.Queue.MaxResponse
	}
	m.lastResp = resp
	m.sla.Observe(resp)
	m.decisions++
	m.activeSum += int64(m.fleet.ActiveCount())
	m.offeredTotal += offered
	m.droppedTotal += dropped

	// Decide + actuate.
	switch m.cfg.Mode {
	case ModeAlwaysOn:
		m.fleet.SetTarget(m.cfg.FleetSize)
	case ModeOnOffOnly:
		next := m.cfg.Trigger.Desired(m.fleet.OnCount(), resp)
		m.fleet.SetTarget(next)
	case ModeDVFSOnly:
		m.applyGovernor(now, offered)
	case ModeOblivious:
		// Two independent controllers, each blind to the other — the
		// composition hazard of §5.1.
		next := m.cfg.Trigger.Desired(m.fleet.OnCount(), resp)
		m.fleet.SetTarget(next)
		m.applyGovernor(now, offered)
	case ModeCoordinated:
		// Decide on the worse of current and boot-delay-ahead demand so
		// rising edges find capacity already booted.
		obs := offered
		if planDemand >= 0 {
			obs = planDemand
		}
		m.demandFc.Observe(obs)
		planFor := math.Max(obs, m.demandFc.Forecast(m.lookahead))
		dec := m.joint.Decide(planFor)
		m.fleet.SetTarget(dec.Servers)
		m.setPState(now, dec.PState)
	}

	if m.cfg.Record {
		m.fleet.Sync(now)
		m.samples = append(m.samples, Sample{
			At:       now,
			Offered:  offered,
			Active:   m.fleet.ActiveCount(),
			PState:   m.curPState,
			PowerW:   m.fleet.PowerW(),
			Response: resp,
			Dropped:  dropped,
		})
	}
}

// applyGovernor runs the threshold DVFS governor on the per-server share
// of the offered load.
func (m *Manager) applyGovernor(now time.Duration, offered float64) {
	active := m.fleet.ActiveCount()
	if active == 0 {
		return
	}
	perServer := offered / float64(active)
	idx := m.governor.Decide(perServer, m.cfg.ServerConfig.Capacity)
	m.setPState(now, idx)
}

func (m *Manager) setPState(now time.Duration, idx int) {
	if idx == m.curPState {
		return
	}
	// Fleet-wide homogeneous setting keeps the model simple; per-zone
	// differentiation belongs to the placement layer.
	if err := m.fleet.SetPStateAll(now, idx); err != nil {
		panic(fmt.Sprintf("core: p-state actuation: %v", err)) // indexes are validated at construction
	}
	m.curPState = idx
}

// Result finalizes accounting at now and summarizes the run.
func (m *Manager) Result(now time.Duration) RunResult {
	m.fleet.Sync(now)
	ons, offs := m.fleet.Switches()
	res := RunResult{
		Mode:             m.cfg.Mode,
		EnergyKWh:        m.fleet.EnergyJ() / 3.6e6,
		SLAViolationRate: m.sla.ViolationRate(),
		WorstResponse:    m.sla.Worst(),
		SwitchOns:        ons,
		SwitchOffs:       offs,
		Samples:          m.samples,
	}
	if m.decisions > 0 {
		res.MeanActive = float64(m.activeSum) / float64(m.decisions)
	}
	if m.offeredTotal > 0 {
		res.DroppedFraction = m.droppedTotal / m.offeredTotal
	}
	if adm := m.Admission(); adm != nil {
		u := &UserOutcomes{
			Offered:         adm.OfferedUsers(),
			Admitted:        adm.AdmittedUsers(),
			Rejected:        adm.RejectedUsers(),
			DeferredBacklog: adm.DeferredBacklog(),
			Degraded:        adm.DegradedUsers(),
		}
		for c := 0; c < workload.NumClasses; c++ {
			u.SLOMissRate[c] = adm.SLOMissRate(workload.Class(c))
		}
		if rl := m.cfg.Retry; rl != nil {
			u.Fresh = rl.FreshUsers()
			u.Retried = rl.RetriedUsers()
			u.Abandoned = rl.AbandonedUsers()
			u.Goodput = rl.GoodputUsers()
			u.InRetry = rl.InRetryTotal()
			u.RetryAmplification = rl.RetryAmplification()
			u.BreakerTrips = rl.Trips()
		}
		res.Users = u
	}
	return res
}
