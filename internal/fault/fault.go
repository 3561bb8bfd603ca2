// Package fault makes infrastructure failures first-class simulation
// events. Section 2 of the paper grounds elastic power management in
// failure realities — utility outages bridged by the UPS until diesel
// generators start, N+1 cooling redundancy, thermal protection when CRAC
// capacity drops — yet an availability model alone never exercises the
// MRM layer's reactions. The Injector rides the sim.Engine event loop to
// schedule and revert faults mid-run, deterministically from the seed:
//
//   - utility feed loss (UPS battery bridging, generator start latency
//     with start-failure probability and bounded retry/backoff);
//   - single CRAC unit failure (reduced plant capacity, thermal ramp);
//   - server crash (abrupt power-off with state-machine-legal recovery);
//   - sensor faults (dropout and stuck-at readings).
//
// Listeners (the MRM layer's graceful-degradation responses) subscribe
// for Notice callbacks at injection and revert time. All randomness comes
// from a fork of the engine's seeded stream, so two runs with the same
// seed produce byte-identical fault schedules and telemetry.
package fault

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cooling"
	"repro/internal/sensornet"
	"repro/internal/server"
	"repro/internal/sim"
)

// Kind classifies a fault or fault-lifecycle notification.
type Kind int

// Fault kinds. The first five are injectable through Event; the last two
// are lifecycle notifications emitted by the utility state machine.
const (
	// UtilityOutage is a loss of the utility feed (§2.1): the UPS
	// bridges the critical load until generators start or the store
	// empties.
	UtilityOutage Kind = iota
	// CRACFailure takes one CRAC unit's cooling coil out of service.
	CRACFailure
	// ServerCrash drops one server abruptly to Off.
	ServerCrash
	// SensorDropout silences one sensor node.
	SensorDropout
	// SensorStuck latches one sensor node's reading.
	SensorStuck
	// RackFailure kills a whole wired failure domain (a rack or PDU
	// span) at once: every server in the group crashes together and
	// recovers together on one shared repair clock — the correlated
	// counterpart of independent ServerCrash events.
	RackFailure
	// CapacityDip announces a facility-level serving-capacity loss (a
	// borked deploy, a dependency brownout) without touching the power
	// substrate: listeners scale their capacity view by 1-Frac until the
	// dip reverts. The canonical retry-storm trigger.
	CapacityDip
	// GeneratorOnline is emitted (Start=true) when the backup generator
	// picks up the load during an outage. Not injectable.
	GeneratorOnline
	// UPSDepleted is emitted (Start=true) when the UPS store runs empty
	// with no generator online — the facility-drop event. Not injectable.
	UPSDepleted
)

// String renders the kind for reports and errors.
func (k Kind) String() string {
	switch k {
	case UtilityOutage:
		return "utility-outage"
	case CRACFailure:
		return "crac-failure"
	case ServerCrash:
		return "server-crash"
	case SensorDropout:
		return "sensor-dropout"
	case SensorStuck:
		return "sensor-stuck"
	case RackFailure:
		return "rack-failure"
	case CapacityDip:
		return "capacity-dip"
	case GeneratorOnline:
		return "generator-online"
	case UPSDepleted:
		return "ups-depleted"
	default:
		return fmt.Sprintf("fault-kind-%d", int(k))
	}
}

// Notice is one fault lifecycle notification delivered to listeners.
type Notice struct {
	// Kind classifies the event.
	Kind Kind
	// At is the virtual time of the notification.
	At time.Duration
	// Start is true at injection and false at revert/recovery.
	Start bool
	// Index identifies the target (CRAC unit, server, sensor node, or
	// failure domain); -1 for facility-wide kinds.
	Index int
	// Frac is the capacity fraction lost, set only for CapacityDip.
	Frac float64
}

// Listener receives fault notifications. Listeners run inside the event
// that injected or reverted the fault, so they may schedule follow-up
// events and mutate substrates — that is their purpose.
type Listener func(e *sim.Engine, n Notice)

// Event is one scheduled fault.
type Event struct {
	// Kind selects the fault class (must be injectable).
	Kind Kind
	// At is the injection time.
	At time.Duration
	// Duration is how long the fault persists before being reverted
	// (repair, recovery, grid restoration). Zero or negative means the
	// fault is permanent for the run.
	Duration time.Duration
	// Index is the target CRAC unit, server, sensor node, or failure
	// domain. Ignored for UtilityOutage and CapacityDip.
	Index int
	// Frac is the capacity fraction lost in (0,1], CapacityDip only.
	Frac float64
}

// Injector schedules faults onto an engine and notifies listeners.
// Construct with NewInjector, wire the substrates that can fail, then Arm
// a schedule (hand-written or from GenerateSchedule).
type Injector struct {
	engine    *sim.Engine
	rng       *sim.RNG
	listeners []Listener

	room    *cooling.Room
	servers []*server.Server
	net     *sensornet.Network
	utility *Utility
	domains [][]int
	dipFrac float64

	injected int
	reverted int
	byKind   map[Kind]int
	armed    int
}

// NewInjector builds an injector riding e. Its randomness is an
// independent fork of the engine's stream, so arming faults never
// perturbs workload or sensor draws.
func NewInjector(e *sim.Engine) *Injector {
	in := &Injector{
		engine: e,
		rng:    e.RNG().Fork("fault-injector"),
		byKind: make(map[Kind]int),
	}
	e.Register(in)
	return in
}

// Subscribe adds a listener for fault notifications, called in
// subscription order.
func (in *Injector) Subscribe(l Listener) { in.listeners = append(in.listeners, l) }

// WireRoom attaches the cooling room whose CRAC units can fail.
func (in *Injector) WireRoom(r *cooling.Room) { in.room = r }

// WireServers attaches the servers that can crash.
func (in *Injector) WireServers(ss []*server.Server) { in.servers = ss }

// WireSensors attaches the sensor network whose nodes can fail.
func (in *Injector) WireSensors(n *sensornet.Network) { in.net = n }

// WireDomains attaches correlated failure domains: each group lists
// server indices (into the WireServers slice) that share a rack or PDU
// and therefore die and recover together under RackFailure. Requires
// WireServers; every index must be in range.
func (in *Injector) WireDomains(groups [][]int) error {
	if len(in.servers) == 0 {
		return fmt.Errorf("fault: WireDomains requires WireServers first")
	}
	for g, group := range groups {
		if len(group) == 0 {
			return fmt.Errorf("fault: domain %d is empty", g)
		}
		for _, idx := range group {
			if idx < 0 || idx >= len(in.servers) {
				return fmt.Errorf("fault: domain %d server index %d out of range [0,%d)", g, idx, len(in.servers))
			}
		}
	}
	in.domains = groups
	return nil
}

// ActiveDip reports the capacity fraction currently lost to a
// CapacityDip event (0 when none is active).
func (in *Injector) ActiveDip() float64 { return in.dipFrac }

// WireUtility attaches the utility-feed state machine (UPS battery,
// generator start behaviour) used by UtilityOutage events.
func (in *Injector) WireUtility(cfg UtilityConfig) (*Utility, error) {
	u, err := newUtility(in, cfg)
	if err != nil {
		return nil, err
	}
	in.utility = u
	return u, nil
}

// Utility exposes the wired utility state machine (nil until wired).
func (in *Injector) Utility() *Utility { return in.utility }

// Injected reports how many faults have been injected so far.
func (in *Injector) Injected() int { return in.injected }

// Reverted reports how many injected faults have been reverted.
func (in *Injector) Reverted() int { return in.reverted }

// Count reports injections of one kind.
func (in *Injector) Count(k Kind) int { return in.byKind[k] }

// Armed reports how many events have been armed on the engine.
func (in *Injector) Armed() int { return in.armed }

// notify fans a notice out to the listeners.
func (in *Injector) notify(n Notice) {
	for _, l := range in.listeners {
		l(in.engine, n)
	}
}

// validate checks one event against the wired substrates.
func (in *Injector) validate(ev Event) error {
	switch ev.Kind {
	case UtilityOutage:
		if in.utility == nil {
			return fmt.Errorf("fault: utility outage armed without WireUtility")
		}
	case CRACFailure:
		if in.room == nil {
			return fmt.Errorf("fault: CRAC failure armed without WireRoom")
		}
		if ev.Index < 0 || ev.Index >= in.room.CRACs() {
			return fmt.Errorf("fault: CRAC index %d out of range [0,%d)", ev.Index, in.room.CRACs())
		}
	case ServerCrash:
		if len(in.servers) == 0 {
			return fmt.Errorf("fault: server crash armed without WireServers")
		}
		if ev.Index < 0 || ev.Index >= len(in.servers) {
			return fmt.Errorf("fault: server index %d out of range [0,%d)", ev.Index, len(in.servers))
		}
	case SensorDropout, SensorStuck:
		if in.net == nil {
			return fmt.Errorf("fault: sensor fault armed without WireSensors")
		}
	case RackFailure:
		if len(in.domains) == 0 {
			return fmt.Errorf("fault: rack failure armed without WireDomains")
		}
		if ev.Index < 0 || ev.Index >= len(in.domains) {
			return fmt.Errorf("fault: domain index %d out of range [0,%d)", ev.Index, len(in.domains))
		}
	case CapacityDip:
		if !(ev.Frac > 0 && ev.Frac <= 1) {
			return fmt.Errorf("fault: capacity dip fraction %v out of (0,1]", ev.Frac)
		}
	default:
		return fmt.Errorf("fault: kind %v is not injectable", ev.Kind)
	}
	if ev.At < in.engine.Now() {
		return fmt.Errorf("fault: event at %v before now %v", ev.At, in.engine.Now())
	}
	return nil
}

// Arm validates and schedules a fault program. Either every event is
// scheduled or none is.
func (in *Injector) Arm(events []Event) error {
	for i, ev := range events {
		if err := in.validate(ev); err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
	}
	for _, ev := range events {
		ev := ev
		in.engine.At(ev.At, func(e *sim.Engine) { in.apply(e, ev) })
		in.armed++
	}
	return nil
}

// apply injects one fault and, for finite durations, schedules its
// revert.
func (in *Injector) apply(e *sim.Engine, ev Event) {
	now := e.Now()
	switch ev.Kind {
	case UtilityOutage:
		if !in.utility.beginOutage(e) {
			return // already in an outage; overlapping events coalesce
		}
		in.record(ev.Kind)
		in.notify(Notice{Kind: UtilityOutage, At: now, Start: true, Index: -1})
		if ev.Duration > 0 {
			e.After(ev.Duration, func(e *sim.Engine) {
				if in.utility.endOutage(e) {
					in.reverted++
					in.notify(Notice{Kind: UtilityOutage, At: e.Now(), Start: false, Index: -1})
				}
			})
		}
	case CRACFailure:
		if in.room.UnitFailed(ev.Index) {
			return // already failed; overlapping events coalesce
		}
		if err := in.room.SetUnitFailed(ev.Index, true); err != nil {
			panic(fmt.Sprintf("fault: %v", err)) // index validated at Arm
		}
		in.record(ev.Kind)
		in.notify(Notice{Kind: CRACFailure, At: now, Start: true, Index: ev.Index})
		if ev.Duration > 0 {
			e.After(ev.Duration, func(e *sim.Engine) {
				if !in.room.UnitFailed(ev.Index) {
					return
				}
				_ = in.room.SetUnitFailed(ev.Index, false)
				in.reverted++
				in.notify(Notice{Kind: CRACFailure, At: e.Now(), Start: false, Index: ev.Index})
			})
		}
	case ServerCrash:
		s := in.servers[ev.Index]
		if !s.Crash(now) {
			return // off or shutting down: nothing to lose
		}
		in.record(ev.Kind)
		in.notify(Notice{Kind: ServerCrash, At: now, Start: true, Index: ev.Index})
		if ev.Duration > 0 {
			e.After(ev.Duration, func(e *sim.Engine) {
				// Recover only a machine that is still down; the MRM may
				// have rebooted it already.
				if s.State() != server.StateOff {
					return
				}
				s.PowerOn(e)
				in.reverted++
				in.notify(Notice{Kind: ServerCrash, At: e.Now(), Start: false, Index: ev.Index})
			})
		}
	case RackFailure:
		// Kill the whole domain as one correlated event: every server
		// that can crash goes down now, and all of them share one repair
		// clock instead of ServerCrash's per-machine recovery.
		group := in.domains[ev.Index]
		downed := 0
		for _, idx := range group {
			if in.servers[idx].Crash(now) {
				downed++
			}
		}
		if downed == 0 {
			return // whole domain already dark; overlapping events coalesce
		}
		in.record(ev.Kind)
		in.notify(Notice{Kind: RackFailure, At: now, Start: true, Index: ev.Index})
		if ev.Duration > 0 {
			e.After(ev.Duration, func(e *sim.Engine) {
				// Shared repair: bring back every machine in the domain
				// that is still down; the MRM may have rebooted some.
				recovered := 0
				for _, idx := range group {
					if in.servers[idx].State() == server.StateOff {
						in.servers[idx].PowerOn(e)
						recovered++
					}
				}
				if recovered == 0 {
					return
				}
				in.reverted++
				in.notify(Notice{Kind: RackFailure, At: e.Now(), Start: false, Index: ev.Index})
			})
		}
	case CapacityDip:
		if in.dipFrac > 0 {
			return // a dip is already active; overlapping events coalesce
		}
		in.dipFrac = ev.Frac
		in.record(ev.Kind)
		in.notify(Notice{Kind: CapacityDip, At: now, Start: true, Index: -1, Frac: ev.Frac})
		if ev.Duration > 0 {
			e.After(ev.Duration, func(e *sim.Engine) {
				if in.dipFrac != ev.Frac {
					return
				}
				in.dipFrac = 0
				in.reverted++
				in.notify(Notice{Kind: CapacityDip, At: e.Now(), Start: false, Index: -1, Frac: ev.Frac})
			})
		}
	case SensorDropout, SensorStuck:
		mode := sensornet.FaultDropout
		if ev.Kind == SensorStuck {
			mode = sensornet.FaultStuck
		}
		if err := in.net.SetFault(ev.Index, mode); err != nil {
			panic(fmt.Sprintf("fault: %v", err)) // index validated at Arm
		}
		in.record(ev.Kind)
		in.notify(Notice{Kind: ev.Kind, At: now, Start: true, Index: ev.Index})
		if ev.Duration > 0 {
			e.After(ev.Duration, func(e *sim.Engine) {
				if in.net.Fault(ev.Index) != mode {
					return // a later fault replaced this one
				}
				_ = in.net.SetFault(ev.Index, sensornet.FaultNone)
				in.reverted++
				in.notify(Notice{Kind: ev.Kind, At: e.Now(), Start: false, Index: ev.Index})
			})
		}
	}
}

// record tallies one injection.
func (in *Injector) record(k Kind) {
	in.injected++
	in.byKind[k]++
}

// CheckInvariants participates in the runtime invariant checker
// (structural invariant.Checkable): bookkeeping must stay consistent and
// the wired battery physically sane.
func (in *Injector) CheckInvariants(now time.Duration) error {
	if in.reverted > in.injected {
		return fmt.Errorf("fault: reverted %d > injected %d", in.reverted, in.injected)
	}
	if in.dipFrac < 0 || in.dipFrac > 1 {
		return fmt.Errorf("fault: active dip fraction %v out of [0,1]", in.dipFrac)
	}
	if u := in.utility; u != nil {
		if frac := u.cfg.Battery.ChargeFraction(); frac < -1e-9 || frac > 1+1e-9 {
			return fmt.Errorf("fault: battery charge fraction %v out of [0,1]", frac)
		}
		if u.genOn && u.gridUp {
			return fmt.Errorf("fault: generator online while grid is up")
		}
		if u.unservedJ < 0 || u.bridgedJ < 0 {
			return fmt.Errorf("fault: negative energy accounting (bridged %v, unserved %v)",
				u.bridgedJ, u.unservedJ)
		}
	}
	return nil
}

// ScheduleConfig shapes a randomized fault program for chaos soaking:
// Poisson arrivals per class (a zero mean inter-arrival disables the
// class), exponential repair times floored at one second.
type ScheduleConfig struct {
	// Horizon bounds injection times.
	Horizon time.Duration
	// OutageEvery, CRACEvery, CrashEvery, SensorEvery, RackEvery,
	// DipEvery are the mean inter-arrival times per fault class.
	OutageEvery, CRACEvery, CrashEvery, SensorEvery, RackEvery, DipEvery time.Duration
	// OutageFor, CRACFor, CrashFor, SensorFor, RackFor, DipFor are the
	// mean fault durations.
	OutageFor, CRACFor, CrashFor, SensorFor, RackFor, DipFor time.Duration
	// CRACs, Servers, Sensors, Racks size the index ranges targets are
	// drawn from (Racks counts wired failure domains).
	CRACs, Servers, Sensors, Racks int
	// DipFrac is the capacity fraction each generated dip removes, in
	// (0,1]. Zero defaults to 0.5.
	DipFrac float64
}

// GenerateSchedule draws a random fault program from rng. The result is
// sorted by injection time and fully determined by the stream, so a seed
// reproduces the chaos run exactly.
func GenerateSchedule(rng *sim.RNG, cfg ScheduleConfig) ([]Event, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("fault: schedule horizon %v must be positive", cfg.Horizon)
	}
	for _, pair := range []struct {
		name        string
		every, mean time.Duration
	}{
		{"outage", cfg.OutageEvery, cfg.OutageFor},
		{"crac", cfg.CRACEvery, cfg.CRACFor},
		{"crash", cfg.CrashEvery, cfg.CrashFor},
		{"sensor", cfg.SensorEvery, cfg.SensorFor},
		{"rack", cfg.RackEvery, cfg.RackFor},
		{"dip", cfg.DipEvery, cfg.DipFor},
	} {
		if pair.every > 0 && pair.mean <= 0 {
			return nil, fmt.Errorf("fault: %s class enabled with non-positive mean duration", pair.name)
		}
	}
	var events []Event
	draw := func(kind Kind, every, mean time.Duration, targets int) {
		if every <= 0 || targets <= 0 {
			return
		}
		rate := 1 / every.Seconds()
		for t := time.Duration(rng.Exp(rate) * float64(time.Second)); t < cfg.Horizon; {
			d := time.Duration(rng.Exp(1/mean.Seconds()) * float64(time.Second))
			if d < time.Second {
				d = time.Second
			}
			events = append(events, Event{Kind: kind, At: t, Duration: d, Index: rng.Intn(targets)})
			t += time.Duration(rng.Exp(rate) * float64(time.Second))
		}
	}
	draw(UtilityOutage, cfg.OutageEvery, cfg.OutageFor, 1)
	draw(CRACFailure, cfg.CRACEvery, cfg.CRACFor, cfg.CRACs)
	draw(ServerCrash, cfg.CrashEvery, cfg.CrashFor, cfg.Servers)
	if cfg.SensorEvery > 0 && cfg.Sensors > 0 {
		rate := 1 / cfg.SensorEvery.Seconds()
		for t := time.Duration(rng.Exp(rate) * float64(time.Second)); t < cfg.Horizon; {
			kind := SensorDropout
			if rng.Bernoulli(0.5) {
				kind = SensorStuck
			}
			d := time.Duration(rng.Exp(1/cfg.SensorFor.Seconds()) * float64(time.Second))
			if d < time.Second {
				d = time.Second
			}
			events = append(events, Event{Kind: kind, At: t, Duration: d, Index: rng.Intn(cfg.Sensors)})
			t += time.Duration(rng.Exp(rate) * float64(time.Second))
		}
	}
	// New classes draw after the originals so enabling them never
	// perturbs the RNG sequence of a pre-existing schedule.
	draw(RackFailure, cfg.RackEvery, cfg.RackFor, cfg.Racks)
	if cfg.DipEvery > 0 {
		frac := cfg.DipFrac
		if frac <= 0 {
			frac = 0.5
		}
		if frac > 1 {
			return nil, fmt.Errorf("fault: dip fraction %v out of (0,1]", cfg.DipFrac)
		}
		rate := 1 / cfg.DipEvery.Seconds()
		for t := time.Duration(rng.Exp(rate) * float64(time.Second)); t < cfg.Horizon; {
			d := time.Duration(rng.Exp(1/cfg.DipFor.Seconds()) * float64(time.Second))
			if d < time.Second {
				d = time.Second
			}
			events = append(events, Event{Kind: CapacityDip, At: t, Duration: d, Index: -1, Frac: frac})
			t += time.Duration(rng.Exp(rate) * float64(time.Second))
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}
