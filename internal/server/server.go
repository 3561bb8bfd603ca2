// Package server models individual machines: their power draw as a
// function of utilization and DVFS state, their on/off lifecycle with boot
// delays and boot energy, core parking, component-level power breakdown,
// and the protective thermal trip the paper describes in §2.2 ("servers
// have protective temperature sensors which will shut down the server if
// the CPU or key components are overheated").
//
// The power model follows the literature the paper builds on: a powered-on
// idle server draws a large constant fraction of its peak (≈60 %, §4.3,
// after Fan et al. [10]), with the dynamic remainder proportional to
// utilization and scaled by the DVFS operating point.
package server

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// State is the lifecycle state of a server.
type State int

// Server lifecycle states. Transitions: Off→Booting→Active→ShuttingDown→Off,
// with Booting→ShuttingDown on an aborted boot and Active/Booting→Off
// directly on a thermal trip.
const (
	StateOff State = iota + 1
	StateBooting
	StateActive
	StateShuttingDown
)

// String renders the state for logs.
func (s State) String() string {
	switch s {
	case StateOff:
		return "off"
	case StateBooting:
		return "booting"
	case StateActive:
		return "active"
	case StateShuttingDown:
		return "shutting-down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// PState is one DVFS operating point (paper §4.2). Freq is the clock as a
// fraction of nominal; capacity scales linearly with Freq while the
// dynamic power share scales with DynFactor (≈ Freq·V², superlinear in
// Freq because voltage drops with clock).
type PState struct {
	// Freq is the relative clock frequency in (0, 1].
	Freq float64
	// DynFactor is the relative dynamic power at this point in (0, 1].
	DynFactor float64
}

// DefaultPStates is a typical five-point ladder. DynFactor ≈ Freq³
// approximates the voltage–frequency relation.
func DefaultPStates() []PState {
	freqs := []float64{1.0, 0.9, 0.8, 0.7, 0.6}
	ps := make([]PState, 0, len(freqs))
	for _, f := range freqs {
		ps = append(ps, PState{Freq: f, DynFactor: f * f * f})
	}
	return ps
}

// Config describes a server model.
type Config struct {
	// Name identifies the server in logs and placement maps.
	Name string
	// PeakPower is the wall draw at 100 % utilization and nominal
	// frequency, in watts.
	PeakPower float64
	// IdleFraction is the idle power as a fraction of peak (the paper
	// cites ≈0.6).
	IdleFraction float64
	// PStates is the DVFS ladder, ordered from fastest to slowest. It
	// must contain at least one entry with Freq == 1.
	PStates []PState
	// Capacity is the work the server completes per second at nominal
	// frequency, in abstract capacity units (requests/s, connections
	// accepted/s — the workload layer decides).
	Capacity float64
	// BootDelay is the off→active latency (paper §4.3: "it takes time
	// to wake up a slept component").
	BootDelay time.Duration
	// BootEnergy is the extra energy consumed by one boot, in joules
	// ("this wakeup process may consume more energy and offset the
	// benefit of sleeping").
	BootEnergy float64
	// ShutdownDelay is the active→off latency.
	ShutdownDelay time.Duration
	// Cores is the number of CPU cores (core parking granularity).
	Cores int
	// ParkSavings is the fraction of idle power eliminated by parking
	// all cores (§4.3 "core parking").
	ParkSavings float64
	// TripTempC is the inlet temperature at which the protective sensor
	// shuts the server down.
	TripTempC float64
	// PowerCurve optionally maps utilization to the fraction of dynamic
	// power drawn, as piecewise-linear breakpoints over [0,1]. Nil means
	// linear (homogeneous cores). A concave curve models heterogeneous
	// CMPs (§4.1): efficient little cores absorb light load cheaply and
	// big cores engage only near the top ("selectively use cores with
	// different power and performance trade-offs to meet workload
	// variation").
	PowerCurve []CurvePoint
}

// CurvePoint is one breakpoint of a utilization→dynamic-power-fraction
// curve.
type CurvePoint struct {
	// Utilization in [0,1].
	Utilization float64
	// DynFraction in [0,1]: share of full dynamic power drawn at this
	// utilization.
	DynFraction float64
}

// BigLittleCurve is a canonical heterogeneous-CMP curve: the first 40 %
// of capacity comes from efficient cores at 15 % of dynamic power; the
// rest engages the big cores.
func BigLittleCurve() []CurvePoint {
	return []CurvePoint{
		{Utilization: 0, DynFraction: 0},
		{Utilization: 0.4, DynFraction: 0.15},
		{Utilization: 1, DynFraction: 1},
	}
}

// DefaultConfig is a contemporary 1U dual-socket service node.
func DefaultConfig() Config {
	return Config{
		Name:          "server",
		PeakPower:     300,
		IdleFraction:  0.60,
		PStates:       DefaultPStates(),
		Capacity:      1000,
		BootDelay:     90 * time.Second,
		BootEnergy:    20_000, // ~90 s near 220 W
		ShutdownDelay: 20 * time.Second,
		Cores:         8,
		ParkSavings:   0.25,
		TripTempC:     38,
	}
}

// Validate checks the configuration for physical consistency.
func (c Config) Validate() error {
	switch {
	case c.PeakPower <= 0:
		return fmt.Errorf("server: peak power %v must be positive", c.PeakPower)
	case c.IdleFraction < 0 || c.IdleFraction >= 1:
		return fmt.Errorf("server: idle fraction %v out of [0,1)", c.IdleFraction)
	case len(c.PStates) == 0:
		return fmt.Errorf("server: at least one P-state required")
	case c.Capacity <= 0:
		return fmt.Errorf("server: capacity %v must be positive", c.Capacity)
	case c.BootDelay < 0 || c.ShutdownDelay < 0:
		return fmt.Errorf("server: negative transition delay")
	case c.BootEnergy < 0:
		return fmt.Errorf("server: negative boot energy")
	case c.Cores <= 0:
		return fmt.Errorf("server: cores %d must be positive", c.Cores)
	case c.ParkSavings < 0 || c.ParkSavings > 1:
		return fmt.Errorf("server: park savings %v out of [0,1]", c.ParkSavings)
	}
	for i, p := range c.PStates {
		if p.Freq <= 0 || p.Freq > 1 {
			return fmt.Errorf("server: p-state %d frequency %v out of (0,1]", i, p.Freq)
		}
		if p.DynFactor <= 0 || p.DynFactor > 1 {
			return fmt.Errorf("server: p-state %d dyn factor %v out of (0,1]", i, p.DynFactor)
		}
	}
	if c.PStates[0].Freq != 1 {
		return fmt.Errorf("server: first p-state must be nominal frequency, got %v", c.PStates[0].Freq)
	}
	if len(c.PowerCurve) > 0 {
		if len(c.PowerCurve) < 2 {
			return fmt.Errorf("server: power curve needs at least two points")
		}
		first, last := c.PowerCurve[0], c.PowerCurve[len(c.PowerCurve)-1]
		if first.Utilization != 0 || first.DynFraction != 0 {
			return fmt.Errorf("server: power curve must start at (0,0)")
		}
		if last.Utilization != 1 || last.DynFraction != 1 {
			return fmt.Errorf("server: power curve must end at (1,1)")
		}
		for i := 1; i < len(c.PowerCurve); i++ {
			if c.PowerCurve[i].Utilization <= c.PowerCurve[i-1].Utilization {
				return fmt.Errorf("server: power curve utilization not increasing at %d", i)
			}
			if c.PowerCurve[i].DynFraction < c.PowerCurve[i-1].DynFraction {
				return fmt.Errorf("server: power curve fraction decreasing at %d", i)
			}
		}
	}
	return nil
}

// dynFraction evaluates the configured power curve (linear when nil).
func (c *Config) dynFraction(u float64) float64 {
	if len(c.PowerCurve) == 0 {
		return u
	}
	for i := 1; i < len(c.PowerCurve); i++ {
		lo, hi := c.PowerCurve[i-1], c.PowerCurve[i]
		if u <= hi.Utilization {
			frac := (u - lo.Utilization) / (hi.Utilization - lo.Utilization)
			return lo.DynFraction + frac*(hi.DynFraction-lo.DynFraction)
		}
	}
	return 1
}

// Change is one observed power-affecting transition on a server, handed
// to its Watcher. Deltas are exactly the differences the server's own
// accounting produced, so a watcher that accumulates them maintains the
// same aggregates a fresh scan would compute (up to float association).
type Change struct {
	// OldState and NewState bracket the lifecycle transition (equal when
	// only power, energy, or the trip counter moved).
	OldState, NewState State
	// OldPowerW and NewPowerW bracket the instantaneous draw.
	OldPowerW, NewPowerW float64
	// EnergyDeltaJ is the energy accumulated since the last notification
	// (integration plus any boot surcharge).
	EnergyDeltaJ float64
	// TripDelta is the protective-trip counter increment (0 or 1).
	TripDelta int
}

// Watcher observes power-affecting changes on servers. A fleet installs
// one watcher per server (see Watch) and maintains struct-of-arrays
// aggregates — total and per-group power, committed/active counts,
// energy, trips — in O(changes) instead of rescanning every server.
type Watcher interface {
	// ServerChanged is called after a mutation left the server with a
	// different power draw, state, energy total, or trip count. slot is
	// the identity the watcher registered the server under.
	ServerChanged(slot int, c Change)
}

// Server is one simulated machine. Methods that change power-relevant
// state integrate energy up to the supplied instant first, so total energy
// is exact for piecewise-constant power.
type Server struct {
	cfg Config

	state       State
	pstate      int
	util        float64 // utilization of currently available capacity, [0,1]
	parkedCores int

	lastAt   time.Duration
	energyJ  float64
	trips    int
	boots    int
	crashes  int
	readyAt  time.Duration // when a pending boot completes
	offAt    time.Duration // when a pending shutdown completes
	inletC   float64
	throttle float64 // T-state duty cycle in (0,1]; 1 = no throttling

	// Notification hook: the watcher sees every power-affecting change,
	// tagged with slot. seen* hold the values of the last notification so
	// deltas are exact.
	watcher    Watcher
	slot       int
	seenState  State
	seenPowerW float64
	seenEnergy float64
	seenTrips  int
}

// New builds a server in the Off state.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, state: StateOff, throttle: 1, inletC: 20}, nil
}

// MustNew builds a server or panics; intended for tests and examples with
// known-good configurations.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name reports the configured name.
func (s *Server) Name() string { return s.cfg.Name }

// Config returns the server's configuration.
func (s *Server) Config() Config { return s.cfg }

// State reports the lifecycle state.
func (s *Server) State() State { return s.state }

// Utilization reports the current fraction of available capacity in use.
func (s *Server) Utilization() float64 { return s.util }

// PStateIndex reports the current DVFS operating point index.
func (s *Server) PStateIndex() int { return s.pstate }

// Trips reports how many protective thermal shutdowns have occurred.
func (s *Server) Trips() int { return s.trips }

// Boots reports how many boot cycles have been initiated.
func (s *Server) Boots() int { return s.boots }

// InletTempC reports the last observed inlet temperature.
func (s *Server) InletTempC() float64 { return s.inletC }

// advance integrates energy up to now.
func (s *Server) advance(now time.Duration) {
	if now < s.lastAt {
		panic(fmt.Sprintf("server %s: time moved backwards %v -> %v", s.cfg.Name, s.lastAt, now))
	}
	dt := (now - s.lastAt).Seconds()
	s.energyJ += s.Power() * dt
	s.lastAt = now

	// Complete pending transitions whose deadline has passed.
	if s.state == StateBooting && now >= s.readyAt {
		s.state = StateActive
	}
	if s.state == StateShuttingDown && now >= s.offAt {
		s.state = StateOff
		s.util = 0
	}
}

// Sync integrates energy up to now and completes due transitions without
// changing any setpoints. Call it before reading Power or EnergyJ mid-run.
func (s *Server) Sync(now time.Duration) {
	s.advance(now)
	s.notify()
}

// Watch installs w as the server's single watcher; notifications carry
// slot as the server's identity. The delta baseline is the server's
// current state, so install watchers before mutating. A nil w removes
// the hook.
func (s *Server) Watch(slot int, w Watcher) {
	s.watcher = w
	s.slot = slot
	s.seenState = s.state
	s.seenPowerW = s.Power()
	s.seenEnergy = s.energyJ
	s.seenTrips = s.trips
}

// notify hands the watcher the delta since the last notification, if
// anything power-relevant moved. Every public mutator ends here, after
// advance has integrated energy and completed due transitions.
func (s *Server) notify() {
	if s.watcher == nil {
		return
	}
	p := s.Power()
	if s.state == s.seenState && p == s.seenPowerW &&
		s.energyJ == s.seenEnergy && s.trips == s.seenTrips {
		return
	}
	c := Change{
		OldState:     s.seenState,
		NewState:     s.state,
		OldPowerW:    s.seenPowerW,
		NewPowerW:    p,
		EnergyDeltaJ: s.energyJ - s.seenEnergy,
		TripDelta:    s.trips - s.seenTrips,
	}
	s.seenState = s.state
	s.seenPowerW = p
	s.seenEnergy = s.energyJ
	s.seenTrips = s.trips
	s.watcher.ServerChanged(s.slot, c)
}

// Power reports the instantaneous wall draw in watts for the current
// state, utilization, DVFS point, throttling, and core parking.
func (s *Server) Power() float64 {
	switch s.state {
	case StateOff:
		return 0
	case StateBooting, StateShuttingDown:
		// Transitioning machines draw near-idle power but do no work.
		return s.idlePower()
	case StateActive:
		ps := s.cfg.PStates[s.pstate]
		dynamic := (s.cfg.PeakPower - s.cfg.PeakPower*s.cfg.IdleFraction) *
			s.cfg.dynFraction(s.util) * ps.DynFactor * s.throttle
		return s.idlePower() + dynamic
	default:
		return 0
	}
}

// idlePower is the baseline draw of a powered-on machine after core
// parking savings.
func (s *Server) idlePower() float64 {
	parkedFrac := float64(s.parkedCores) / float64(s.cfg.Cores)
	return s.cfg.PeakPower * s.cfg.IdleFraction * (1 - s.cfg.ParkSavings*parkedFrac)
}

// AvailableCapacity reports the work per second the server can currently
// absorb: zero unless active, scaled by DVFS frequency, throttling, and
// unparked cores.
func (s *Server) AvailableCapacity() float64 {
	if s.state != StateActive {
		return 0
	}
	ps := s.cfg.PStates[s.pstate]
	coreFrac := 1 - float64(s.parkedCores)/float64(s.cfg.Cores)
	return s.cfg.Capacity * ps.Freq * s.throttle * coreFrac
}

// EnergyJ reports the energy consumed so far (through the last advance).
func (s *Server) EnergyJ() float64 { return s.energyJ }

// LastSyncAt reports the instant through which energy has been integrated
// (the time of the last advance). External observers — e.g. the invariant
// checker — use it to reconcile EnergyJ against the power history without
// forcing a Sync of their own, which would perturb floating-point grouping
// relative to an unobserved run.
func (s *Server) LastSyncAt() time.Duration { return s.lastAt }

// SetUtilization assigns the utilization of available capacity at now.
// Values are clamped to [0,1]. Assigning utilization to a non-active
// server is a no-op (it has no capacity).
func (s *Server) SetUtilization(now time.Duration, u float64) {
	s.advance(now)
	if s.state != StateActive {
		s.util = 0
		s.notify()
		return
	}
	s.util = math.Max(0, math.Min(1, u))
	s.notify()
}

// SetPState moves the DVFS operating point at now. The index must be valid.
func (s *Server) SetPState(now time.Duration, idx int) error {
	if idx < 0 || idx >= len(s.cfg.PStates) {
		return fmt.Errorf("server %s: p-state %d out of range [0,%d)", s.cfg.Name, idx, len(s.cfg.PStates))
	}
	s.advance(now)
	s.pstate = idx
	s.notify()
	return nil
}

// SetThrottle sets the T-state duty cycle in (0,1] at now (paper §4.2:
// T-states "throttle down a CPU … by inserting STPCLK signals").
func (s *Server) SetThrottle(now time.Duration, duty float64) error {
	if duty <= 0 || duty > 1 {
		return fmt.Errorf("server %s: throttle duty %v out of (0,1]", s.cfg.Name, duty)
	}
	s.advance(now)
	s.throttle = duty
	s.notify()
	return nil
}

// ParkCores parks n cores at now (0 ≤ n < Cores).
func (s *Server) ParkCores(now time.Duration, n int) error {
	if n < 0 || n >= s.cfg.Cores {
		return fmt.Errorf("server %s: cannot park %d of %d cores", s.cfg.Name, n, s.cfg.Cores)
	}
	s.advance(now)
	s.parkedCores = n
	s.notify()
	return nil
}

// PowerOn starts booting the server using the engine's clock, charging the
// boot energy immediately. It is a no-op unless the server is Off.
func (s *Server) PowerOn(e *sim.Engine) {
	s.advance(e.Now())
	if s.state != StateOff {
		s.notify()
		return
	}
	s.state = StateBooting
	s.boots++
	s.energyJ += s.cfg.BootEnergy
	s.readyAt = e.Now() + s.cfg.BootDelay
	// The completion event must Sync (not bare advance) so the
	// Booting→Active transition reaches the watcher.
	e.ScheduleAt(s.readyAt, func(eng *sim.Engine) { s.Sync(eng.Now()) })
	s.notify()
}

// PowerOff starts a graceful shutdown. It applies to Active servers and
// to Booting ones — a boot in flight is aborted into the shutdown path
// (the boot energy is already spent and is not refunded), so an elastic
// controller that lowers its target during a boot window actually sheds
// the committed capacity. It is a no-op when Off or already ShuttingDown.
func (s *Server) PowerOff(e *sim.Engine) {
	s.advance(e.Now())
	if s.state != StateActive && s.state != StateBooting {
		s.notify()
		return
	}
	s.state = StateShuttingDown
	s.util = 0
	s.offAt = e.Now() + s.cfg.ShutdownDelay
	e.ScheduleAt(s.offAt, func(eng *sim.Engine) { s.Sync(eng.Now()) })
	s.notify()
}

// Crash models an abrupt failure at now (fault injection): a powered-on
// or booting machine drops straight to Off with no graceful shutdown
// delay — the same hard path a protective thermal trip takes, so the
// transition is legal under the lifecycle invariant. Recovery is a normal
// PowerOn. It reports whether the server actually crashed (a machine that
// is Off or already ShuttingDown has nothing to lose).
func (s *Server) Crash(now time.Duration) bool {
	s.advance(now)
	if s.state != StateActive && s.state != StateBooting {
		s.notify()
		return false
	}
	s.state = StateOff
	s.util = 0
	s.crashes++
	s.notify()
	return true
}

// Crashes reports how many abrupt (injected) failures have occurred.
func (s *Server) Crashes() int { return s.crashes }

// ObserveInlet reports the inlet air temperature to the server's
// protective sensor at now. Exceeding the trip threshold while powered on
// causes an immediate protective shutdown (no graceful delay) and reports
// true.
func (s *Server) ObserveInlet(now time.Duration, tempC float64) (tripped bool) {
	s.advance(now)
	s.inletC = tempC
	if tempC > s.cfg.TripTempC && (s.state == StateActive || s.state == StateBooting) {
		s.state = StateOff
		s.util = 0
		s.trips++
		s.notify()
		return true
	}
	s.notify()
	return false
}
