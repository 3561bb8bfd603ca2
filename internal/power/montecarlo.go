package power

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// SimulateAvailabilityOn validates the analytic tier model by failure
// injection: every component fails and repairs as an alternating renewal
// process (exponential times with its MTBF/MTTR), and the facility is up
// when the same structure function used by Tier2Design.Availability holds
// — (utility OR enough generators) AND enough UPS modules AND every
// series component. It returns the empirically observed availability over
// the simulated horizon.
//
// It runs on a caller-supplied engine (which must be fresh: virtual time
// zero and no pending events), so harness probes and invariant checkers
// attached to the engine observe the run. All randomness comes from rng;
// the engine's own random source is untouched.
func SimulateAvailabilityOn(e *sim.Engine, d Tier2Design, horizon time.Duration, rng *sim.RNG) (float64, error) {
	if horizon <= 0 {
		return 0, fmt.Errorf("power: horizon %v must be positive", horizon)
	}
	type unit struct {
		mtbf, mttr float64 // seconds
		up         bool
	}
	mk := func(c Component) (*unit, error) {
		if c.MTBF <= 0 {
			return nil, fmt.Errorf("power: component %q MTBF must be positive", c.Name)
		}
		if c.MTTR < 0 {
			return nil, fmt.Errorf("power: component %q MTTR must be non-negative", c.Name)
		}
		u := &unit{mtbf: c.MTBF.Seconds(), mttr: c.MTTR.Seconds(), up: true}
		// A zero MTTR is valid (the analytic model treats it as a
		// perfectly-repaired component) but must not reach rng.Exp: an
		// infinite repair rate yields degenerate zero-delay events, so
		// the renewal process below special-cases it as instant repair.
		if r := 1 / u.mtbf; math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return nil, fmt.Errorf("power: component %q failure rate %v is not usable", c.Name, r)
		}
		if u.mttr > 0 {
			if r := 1 / u.mttr; math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
				return nil, fmt.Errorf("power: component %q repair rate %v is not usable", c.Name, r)
			}
		}
		return u, nil
	}

	var units []*unit
	add := func(c Component, n int) ([]*unit, error) {
		group := make([]*unit, 0, n)
		for i := 0; i < n; i++ {
			u, err := mk(c)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
			group = append(group, u)
		}
		return group, nil
	}

	utility, err := add(d.Utility, 1)
	if err != nil {
		return 0, err
	}
	gens, err := add(d.GenUnit, d.GenHave)
	if err != nil {
		return 0, err
	}
	upses, err := add(d.UPSUnit, d.UPSHave)
	if err != nil {
		return 0, err
	}
	var series []*unit
	for _, c := range append(append([]Component{}, d.Path...), d.Mechanical...) {
		g, err := add(c, 1)
		if err != nil {
			return 0, err
		}
		series = append(series, g[0])
	}
	if d.GenNeed <= 0 || d.GenNeed > d.GenHave || d.UPSNeed <= 0 || d.UPSNeed > d.UPSHave {
		return 0, fmt.Errorf("power: invalid redundancy needs")
	}

	countUp := func(g []*unit) int {
		n := 0
		for _, u := range g {
			if u.up {
				n++
			}
		}
		return n
	}
	systemUp := func() bool {
		source := utility[0].up || countUp(gens) >= d.GenNeed
		if !source {
			return false
		}
		if countUp(upses) < d.UPSNeed {
			return false
		}
		for _, u := range series {
			if !u.up {
				return false
			}
		}
		return true
	}

	var upSeconds float64
	last := time.Duration(0)
	wasUp := systemUp()
	account := func(now time.Duration) {
		if wasUp {
			upSeconds += (now - last).Seconds()
		}
		last = now
		wasUp = systemUp()
	}
	var schedule func(u *unit)
	schedule = func(u *unit) {
		var wait float64
		if u.up {
			wait = rng.Exp(1 / u.mtbf)
		} else {
			wait = rng.Exp(1 / u.mttr)
		}
		// An exponential draw from a validated rate is finite and
		// non-negative; reject anything else rather than scheduling a
		// NaN/negative delay (which would panic the kernel) or an
		// overflowing one.
		if math.IsNaN(wait) || wait < 0 {
			panic(fmt.Sprintf("power: invalid renewal wait %v", wait))
		}
		if max := (horizon + time.Hour).Seconds(); wait > max {
			wait = max // beyond the horizon; the event never fires
		}
		e.ScheduleAfter(time.Duration(wait*float64(time.Second)), func(eng *sim.Engine) {
			account(eng.Now())
			if u.up && u.mttr == 0 {
				// Instant repair: the component fails and is restored
				// in zero time, contributing no downtime — without
				// this, a zero MTTR would feed rng.Exp an infinite
				// rate and storm the queue with zero-delay repairs.
				schedule(u)
				return
			}
			u.up = !u.up
			wasUp = systemUp()
			schedule(u)
		})
	}
	for _, u := range units {
		schedule(u)
	}
	if err := e.Run(horizon); err != nil {
		return 0, err
	}
	account(horizon)
	return upSeconds / horizon.Seconds(), nil
}
