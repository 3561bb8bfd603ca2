// Package server models individual machines: their power draw as a
// function of utilization and DVFS state, their on/off lifecycle with boot
// delays and boot energy, core parking, and the protective thermal trip
// the paper describes in §2.2 ("servers have protective temperature
// sensors which will shut down the server if the CPU or key components
// are overheated").
//
// The power model follows the literature the paper builds on: a powered-on
// idle server draws a large constant fraction of its peak (≈60 %, §4.3,
// after Fan et al. [10]), with the dynamic remainder proportional to
// utilization and scaled by the DVFS operating point.
//
// Servers live in blocks (see Block): every mutable per-server field is a
// slot-indexed column of a block built from one Config, and a *Server is
// a handle on one slot. A standalone server from New is a one-slot block;
// a fleet owns one block of all its servers and runs its per-tick loops
// over the columns. Every column write also updates the block's
// aggregates (Sums): the per-slot write that the handle methods go
// through, and the column kernels a fleet's loops run, which fold the
// same deltas.
package server

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// State is the lifecycle state of a server.
type State uint8

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

// Validate checks the configuration for physical consistency. Every
// check is written so that a NaN fails it: a block derives its constants
// once, so one bad config would poison every slot built from it.
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.PeakPower) || c.PeakPower > math.MaxFloat64/4: // no draw may overflow
		return fmt.Errorf("server: peak power %v out of range", c.PeakPower)
	case c.PeakPower <= 0:
		return fmt.Errorf("server: peak power %v must be positive", c.PeakPower)
	case !(c.IdleFraction >= 0 && c.IdleFraction < 1):
		return fmt.Errorf("server: idle fraction %v out of [0,1)", c.IdleFraction)
	case len(c.PStates) == 0:
		return fmt.Errorf("server: at least one P-state required")
	case math.IsNaN(c.Capacity) || math.IsInf(c.Capacity, 1):
		return fmt.Errorf("server: capacity %v must be finite", c.Capacity)
	case c.Capacity <= 0:
		return fmt.Errorf("server: capacity %v must be positive", c.Capacity)
	case c.BootDelay < 0 || c.ShutdownDelay < 0:
		return fmt.Errorf("server: negative transition delay")
	case math.IsNaN(c.BootEnergy) || math.IsInf(c.BootEnergy, 1):
		return fmt.Errorf("server: boot energy %v must be finite", c.BootEnergy)
	case c.BootEnergy < 0:
		return fmt.Errorf("server: negative boot energy")
	case c.Cores <= 0:
		return fmt.Errorf("server: cores %d must be positive", c.Cores)
	case !(c.ParkSavings >= 0 && c.ParkSavings <= 1):
		return fmt.Errorf("server: park savings %v out of [0,1]", c.ParkSavings)
	case math.IsNaN(c.TripTempC):
		return fmt.Errorf("server: trip temperature %v must be a number", c.TripTempC)
	}
	for i, p := range c.PStates {
		if !(p.Freq > 0 && p.Freq <= 1) {
			return fmt.Errorf("server: p-state %d frequency %v out of (0,1]", i, p.Freq)
		}
		if !(p.DynFactor > 0 && p.DynFactor <= 1) {
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
			if !(c.PowerCurve[i].Utilization > c.PowerCurve[i-1].Utilization) {
				return fmt.Errorf("server: power curve utilization not increasing at %d", i)
			}
			if !(c.PowerCurve[i].DynFraction >= c.PowerCurve[i-1].DynFraction) {
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
	return c.curveFraction(u)
}

// curveFraction interpolates the configured power curve.
func (c *Config) curveFraction(u float64) float64 {
	for i := 1; i < len(c.PowerCurve); i++ {
		lo, hi := c.PowerCurve[i-1], c.PowerCurve[i]
		if u <= hi.Utilization {
			frac := (u - lo.Utilization) / (hi.Utilization - lo.Utilization)
			return lo.DynFraction + frac*(hi.DynFraction-lo.DynFraction)
		}
	}
	return 1
}

// Server is a handle on one slot of a Block. Methods that change
// power-relevant state integrate energy up to the supplied instant first,
// so total energy is exact for piecewise-constant power.
type Server struct {
	b *Block
	i int
}

// New builds a standalone server in the Off state: a one-slot block.
func New(cfg Config) (*Server, error) {
	b, err := NewBlock(cfg, 1)
	if err != nil {
		return nil, err
	}
	b.suffix = false
	return &b.handles[0], nil
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

// Name reports the server's name: the configured name for a standalone
// server, "<name>-<slot>" for a slot of a larger block.
func (s *Server) Name() string { return s.b.name(s.i) }

// Config returns the configuration the server was built from. All slots
// of a block share it, Name included; Name() reports the slot's own.
func (s *Server) Config() Config { return s.b.cfg }

// State reports the lifecycle state.
func (s *Server) State() State { return s.b.state[s.i] }

// Utilization reports the current fraction of available capacity in use.
func (s *Server) Utilization() float64 { return s.b.util[s.i] }

// PStateIndex reports the current DVFS operating point index.
func (s *Server) PStateIndex() int { return int(s.b.pstate[s.i]) }

// Trips reports how many protective thermal shutdowns have occurred.
func (s *Server) Trips() int { return int(s.b.trips[s.i]) }

// Boots reports how many boot cycles have been initiated.
func (s *Server) Boots() int { return int(s.b.boots[s.i]) }

// Crashes reports how many abrupt (injected) failures have occurred.
func (s *Server) Crashes() int { return int(s.b.crashes[s.i]) }

// InletTempC reports the last observed inlet temperature. A fleet's trip
// scan reports a hot inlet only to the servers that are not Off.
func (s *Server) InletTempC() float64 { return s.b.inlet[s.i] }

// Power reports the instantaneous wall draw in watts for the current
// state, utilization, DVFS point, throttling, and core parking.
func (s *Server) Power() float64 { return s.b.power[s.i] }

// AvailableCapacity reports the work per second the server can currently
// absorb: zero unless active, scaled by DVFS frequency, throttling, and
// unparked cores.
func (s *Server) AvailableCapacity() float64 { return s.b.avail[s.i] }

// EnergyJ reports the energy consumed so far (through the last sync).
func (s *Server) EnergyJ() float64 { return s.b.energy[s.i] }

// LastSyncAt reports the instant through which energy has been integrated
// (the time of the last write). A fleet's dispatch and Sync do not write
// an Off server, so an Off server's value is its last write, which may be
// older than the dispatches and fleet Syncs since; its power is 0, so its
// energy is current. A handle's own Sync still writes it.
// External observers — e.g. the invariant checker — use it to reconcile
// EnergyJ against the power history without forcing a Sync of their own,
// which would perturb floating-point grouping relative to an unobserved
// run.
func (s *Server) LastSyncAt() time.Duration { return s.b.lastAt[s.i] }

// Sync integrates energy up to now and completes due transitions without
// changing any setpoints. Call it before reading Power or EnergyJ mid-run.
func (s *Server) Sync(now time.Duration) { s.b.writeOne(s.i, now, writeArgs{op: opSync}) }

// SetUtilization assigns the utilization of available capacity at now.
// Values are clamped to [0,1], and NaN counts as 0. Assigning utilization
// to a non-active server is a no-op (it has no capacity).
func (s *Server) SetUtilization(now time.Duration, u float64) {
	s.b.writeOne(s.i, now, writeArgs{op: opUtil, x: u})
}

// SetPState moves the DVFS operating point at now. The index must be valid.
func (s *Server) SetPState(now time.Duration, idx int) error {
	if err := s.b.CheckPState(s.i, idx); err != nil {
		return err
	}
	s.b.writeOne(s.i, now, writeArgs{op: opPState, n: idx})
	return nil
}

// SetThrottle sets the T-state duty cycle in (0,1] at now (paper §4.2:
// T-states "throttle down a CPU … by inserting STPCLK signals").
func (s *Server) SetThrottle(now time.Duration, duty float64) error {
	if !(duty > 0 && duty <= 1) {
		return fmt.Errorf("server %s: throttle duty %v out of (0,1]", s.Name(), duty)
	}
	s.b.writeOne(s.i, now, writeArgs{op: opThrottle, x: duty})
	return nil
}

// ParkCores parks n cores at now (0 ≤ n < Cores).
func (s *Server) ParkCores(now time.Duration, n int) error {
	if n < 0 || n >= s.b.cfg.Cores {
		return fmt.Errorf("server %s: cannot park %d of %d cores", s.Name(), n, s.b.cfg.Cores)
	}
	s.b.writeOne(s.i, now, writeArgs{op: opPark, n: n})
	return nil
}

// PowerOn starts booting the server using the engine's clock, charging the
// boot energy immediately. It is a no-op unless the server is Off. An
// event at the ready time completes the boot: a completion batch of one,
// on the path Block.BootLowest's batches take. Like every boot, it raises
// the block's live bound (Block.LiveEnd).
func (s *Server) PowerOn(e *sim.Engine) {
	if s.b.writeOne(s.i, e.Now(), writeArgs{op: opOn}) {
		s.b.live = max(s.b.live, s.i+1)
		s.b.completeAt(e, s.i)
	}
}

// PowerOff starts a graceful shutdown. It applies to Active servers and
// to Booting ones — a boot in flight is aborted into the shutdown path
// (the boot energy is already spent and is not refunded), so an elastic
// controller that lowers its target during a boot window actually sheds
// the committed capacity. It is a no-op when Off or already ShuttingDown.
// An event at the off time completes the shutdown, a completion batch of
// one as for PowerOn; an aborted boot's own completion still fires at
// its ready time and syncs the server there.
func (s *Server) PowerOff(e *sim.Engine) {
	if s.b.writeOne(s.i, e.Now(), writeArgs{op: opOff}) {
		s.b.completeAt(e, s.i)
	}
}

// Crash models an abrupt failure at now (fault injection): a powered-on
// or booting machine drops straight to Off with no graceful shutdown
// delay — the same hard path a protective thermal trip takes, so the
// transition is legal under the lifecycle invariant. Recovery is a normal
// PowerOn. It reports whether the server actually crashed (a machine that
// is Off or already ShuttingDown has nothing to lose).
func (s *Server) Crash(now time.Duration) bool {
	return s.b.writeOne(s.i, now, writeArgs{op: opCrash})
}

// ObserveInlet reports the inlet air temperature to the server's
// protective sensor at now. Exceeding the trip threshold while powered on
// causes an immediate protective shutdown (no graceful delay) and reports
// true.
func (s *Server) ObserveInlet(now time.Duration, tempC float64) (trip bool) {
	return s.b.writeOne(s.i, now, writeArgs{op: opInlet, x: tempC})
}
