package fault

import (
	"fmt"
	"time"

	"repro/internal/power"
	"repro/internal/sim"
)

// UtilityConfig shapes the §2.1 backup chain behind the utility feed:
// "power drawn from the grid is transformed and conditioned to charge the
// UPS system … diesel generators are started upon utility outages". The
// UPS battery bridges the critical load through the generator start
// window; a start attempt can fail and is retried with backoff.
type UtilityConfig struct {
	// Battery is the UPS energy store that bridges outages. Required.
	Battery *power.Battery
	// LoadW reports the critical load the feed must carry. Required.
	LoadW func() float64
	// GenStartDelay is the generator's start-and-transfer latency
	// (typically tens of seconds).
	GenStartDelay time.Duration
	// GenStartFailProb is the probability one start attempt fails —
	// the §2.1 risk the UPS autonomy is sized against.
	GenStartFailProb float64
	// GenRetries bounds retry attempts after the first failure.
	GenRetries int
	// GenRetryBackoff is the delay between start attempts.
	GenRetryBackoff time.Duration
	// Tick is the bridging/recharge integration step.
	Tick time.Duration
}

// Validate checks the configuration.
func (c UtilityConfig) Validate() error {
	if c.Battery == nil {
		return fmt.Errorf("fault: utility needs a battery")
	}
	if c.LoadW == nil {
		return fmt.Errorf("fault: utility needs a load function")
	}
	if c.GenStartDelay < 0 {
		return fmt.Errorf("fault: negative generator start delay")
	}
	if c.GenStartFailProb < 0 || c.GenStartFailProb > 1 {
		return fmt.Errorf("fault: generator start-failure probability %v out of [0,1]", c.GenStartFailProb)
	}
	if c.GenRetries < 0 {
		return fmt.Errorf("fault: negative generator retry count")
	}
	if c.GenRetries > 0 && c.GenRetryBackoff <= 0 {
		return fmt.Errorf("fault: retries need a positive backoff")
	}
	if c.Tick <= 0 {
		return fmt.Errorf("fault: utility tick %v must be positive", c.Tick)
	}
	return nil
}

// Utility is the runtime state machine of the utility feed, generator,
// and UPS bridge. It is driven by the Injector's UtilityOutage events.
type Utility struct {
	inj *Injector
	cfg UtilityConfig

	gridUp   bool
	genOn    bool
	depleted bool // UPSDepleted already announced for this outage

	outages     int
	genAttempts int
	genFailures int
	bridgedJ    float64 // energy served from the UPS store
	unservedJ   float64 // load energy dropped (store empty, no generator)

	// Handles of the UPS bridge loop, the pending generator start
	// attempt, and the recharge loop. Cancelling a zero or stale handle
	// is a no-op.
	bridge   sim.Handle
	attempt  sim.Handle
	recharge sim.Handle
}

// newUtility validates and builds the state machine.
func newUtility(inj *Injector, cfg UtilityConfig) (*Utility, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Utility{inj: inj, cfg: cfg, gridUp: true}, nil
}

// GridUp reports whether the utility feed is live.
func (u *Utility) GridUp() bool { return u.gridUp }

// GeneratorOn reports whether the backup generator carries the load.
func (u *Utility) GeneratorOn() bool { return u.genOn }

// Outages reports how many feed losses have begun.
func (u *Utility) Outages() int { return u.outages }

// GenAttempts and GenFailures report generator start attempts and the
// attempts that failed.
func (u *Utility) GenAttempts() int { return u.genAttempts }

// GenFailures reports failed generator start attempts.
func (u *Utility) GenFailures() int { return u.genFailures }

// BridgedJ reports the energy served from the UPS store across all
// outages so far.
func (u *Utility) BridgedJ() float64 { return u.bridgedJ }

// UnservedJ reports the load energy dropped because the store was empty
// and no generator was online — the ride-through failure measure.
func (u *Utility) UnservedJ() float64 { return u.unservedJ }

// beginOutage transitions the feed down. Reports false when already in
// an outage (overlapping events coalesce).
func (u *Utility) beginOutage(e *sim.Engine) bool {
	if !u.gridUp {
		return false
	}
	u.gridUp = false
	u.genOn = false
	u.depleted = false
	u.outages++
	e.Cancel(u.recharge) // an outage interrupts any recharge in progress
	// Generator start sequence with bounded retry/backoff.
	attempt := 0
	var try func(e *sim.Engine)
	try = func(e *sim.Engine) {
		if u.gridUp || u.genOn {
			return // outage over or generator already up: stand down
		}
		attempt++
		u.genAttempts++
		if u.inj.rng.Bernoulli(u.cfg.GenStartFailProb) {
			u.genFailures++
			if attempt <= u.cfg.GenRetries {
				u.attempt = e.After(u.cfg.GenRetryBackoff, try)
			}
			return
		}
		u.genOn = true
		u.inj.record(GeneratorOnline)
		u.inj.notify(Notice{Kind: GeneratorOnline, At: e.Now(), Start: true, Index: -1})
	}
	u.attempt = e.After(u.cfg.GenStartDelay, try)
	// UPS bridge: integrate the critical load out of the store until the
	// generator is online or the grid returns.
	u.bridge = e.Every(u.cfg.Tick, func(e *sim.Engine) {
		if u.gridUp || u.genOn {
			return
		}
		load := u.cfg.LoadW()
		if load <= 0 {
			return
		}
		covered, ok := u.cfg.Battery.Discharge(load, u.cfg.Tick)
		u.bridgedJ += load * covered.Seconds()
		if !ok {
			u.unservedJ += load * (u.cfg.Tick - covered).Seconds()
			if !u.depleted {
				u.depleted = true
				u.inj.record(UPSDepleted)
				u.inj.notify(Notice{Kind: UPSDepleted, At: e.Now(), Start: true, Index: -1})
			}
		}
	})
	return true
}

// endOutage restores the feed and starts recharging the store. Reports
// false when the grid was already up.
func (u *Utility) endOutage(e *sim.Engine) bool {
	if u.gridUp {
		return false
	}
	u.gridUp = true
	u.genOn = false
	u.depleted = false
	e.Cancel(u.bridge)
	e.Cancel(u.attempt)
	// Recharge from the grid until full; the loop cancels itself when
	// the battery stops drawing.
	u.recharge = e.Every(u.cfg.Tick, func(e *sim.Engine) {
		if gridW := u.cfg.Battery.Recharge(u.cfg.Tick); gridW == 0 {
			e.Cancel(u.recharge)
		}
	})
	return true
}
