package cooling

import (
	"fmt"
	"time"

	"repro/internal/control"
)

// HumidifierConfig describes the humidity-control loop of §2.1 (the paper
// lists humidifiers among the facility's power consumers) and §2.2 (the
// ASHRAE 30–45 % RH band; outside air "brings additional challenges to
// cooling control" because its humidity varies).
type HumidifierConfig struct {
	// LowRH and HighRH bound the controlled band (ASHRAE recommends
	// 0.30–0.45).
	LowRH, HighRH float64
	// TargetRH is the setpoint the actuators steer toward when engaged.
	TargetRH float64
	// HumidifyW and DehumidifyW are the actuator draws when running
	// (steam humidifiers are power-hungry).
	HumidifyW, DehumidifyW float64
	// Tau is the room's humidity time constant toward the driving air.
	Tau time.Duration
	// ActuatorGain is how much faster the actuators move RH than
	// passive mixing (multiplies the effective rate while engaged).
	ActuatorGain float64
	// InitialRH is the starting room humidity.
	InitialRH float64
}

// DefaultHumidifierConfig is a conventional CRAC-integrated unit.
func DefaultHumidifierConfig() HumidifierConfig {
	return HumidifierConfig{
		LowRH:        ASHRAEMinRH,
		HighRH:       ASHRAEMaxRH,
		TargetRH:     0.40,
		HumidifyW:    6_000,
		DehumidifyW:  8_000,
		Tau:          30 * time.Minute,
		ActuatorGain: 4,
		InitialRH:    0.40,
	}
}

// Validate checks the configuration.
func (c HumidifierConfig) Validate() error {
	switch {
	case c.LowRH <= 0 || c.HighRH >= 1 || c.LowRH >= c.HighRH:
		return fmt.Errorf("cooling: RH band [%v,%v] invalid", c.LowRH, c.HighRH)
	case c.TargetRH < c.LowRH || c.TargetRH > c.HighRH:
		return fmt.Errorf("cooling: target RH %v outside band [%v,%v]", c.TargetRH, c.LowRH, c.HighRH)
	case c.HumidifyW < 0 || c.DehumidifyW < 0:
		return fmt.Errorf("cooling: negative actuator power")
	case c.Tau <= 0:
		return fmt.Errorf("cooling: humidity tau %v must be positive", c.Tau)
	case c.ActuatorGain < 1:
		return fmt.Errorf("cooling: actuator gain %v must be >= 1", c.ActuatorGain)
	case c.InitialRH <= 0 || c.InitialRH >= 1:
		return fmt.Errorf("cooling: initial RH %v out of (0,1)", c.InitialRH)
	}
	return nil
}

// Humidifier is the runtime humidity loop: room RH drifts toward the
// driving air (outside air when economizing, dried mechanical supply
// otherwise); the actuators engage outside the band and steer back to the
// target, drawing power while running.
type Humidifier struct {
	cfg           HumidifierConfig
	rh            *control.FirstOrder
	humidifying   bool
	dehumidifying bool
	energyJ       float64
}

// NewHumidifier builds the loop.
func NewHumidifier(cfg HumidifierConfig) (*Humidifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lag, err := control.NewFirstOrder(cfg.Tau, cfg.InitialRH)
	if err != nil {
		return nil, err
	}
	return &Humidifier{cfg: cfg, rh: lag}, nil
}

// RH reports the current room relative humidity.
func (h *Humidifier) RH() float64 { return h.rh.Output() }

// Active reports whether either actuator is currently running.
func (h *Humidifier) Active() (humidify, dehumidify bool) {
	return h.humidifying, h.dehumidifying
}

// EnergyJ reports the actuator energy consumed so far.
func (h *Humidifier) EnergyJ() float64 { return h.energyJ }

// Step advances the loop by dt with the given driving air humidity and
// returns the instantaneous actuator draw. Hysteresis: actuators engage
// when RH leaves the band and run until the target is reached.
func (h *Humidifier) Step(drivingRH float64, dt time.Duration) (powerW float64) {
	if drivingRH < 0 {
		drivingRH = 0
	}
	if drivingRH > 1 {
		drivingRH = 1
	}
	cur := h.rh.Output()
	// Engage/disengage with hysteresis around the target.
	if cur < h.cfg.LowRH {
		h.humidifying = true
	}
	if cur > h.cfg.HighRH {
		h.dehumidifying = true
	}
	if h.humidifying && cur >= h.cfg.TargetRH {
		h.humidifying = false
	}
	if h.dehumidifying && cur <= h.cfg.TargetRH {
		h.dehumidifying = false
	}

	driving := drivingRH
	effDt := dt
	switch {
	case h.humidifying:
		driving = h.cfg.TargetRH + 0.05 // steam injection overshoots a little
		effDt = time.Duration(float64(dt) * h.cfg.ActuatorGain)
		powerW = h.cfg.HumidifyW
	case h.dehumidifying:
		driving = h.cfg.TargetRH - 0.05
		effDt = time.Duration(float64(dt) * h.cfg.ActuatorGain)
		powerW = h.cfg.DehumidifyW
	}
	h.rh.Step(driving, effDt)
	h.energyJ += powerW * dt.Seconds()
	return powerW
}
