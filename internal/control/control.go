// Package control provides the feedback-control substrate the paper's
// coordination arguments rely on (§5.1): PID controllers with anti-windup,
// first-order lags and transport delays for the slow cooling dynamics,
// load forecasters for provisioning, and a deadband for the CRAC
// controllers.
package control

import (
	"fmt"
	"math"
	"time"
)

// PID is a discrete proportional–integral–derivative controller with output
// clamping and integral anti-windup (conditional integration). Construct
// with NewPID.
type PID struct {
	kp, ki, kd float64
	outLo      float64
	outHi      float64
	integral   float64
	prevErr    float64
	havePrev   bool
}

// NewPID builds a controller with gains (kp, ki, kd) and output clamp
// [outLo, outHi].
func NewPID(kp, ki, kd, outLo, outHi float64) (*PID, error) {
	if !(outLo < outHi) {
		return nil, fmt.Errorf("control: PID clamp [%v, %v] invalid", outLo, outHi)
	}
	return &PID{kp: kp, ki: ki, kd: kd, outLo: outLo, outHi: outHi}, nil
}

// Update advances the controller by dt with the given error (setpoint −
// measurement) and returns the clamped control output.
func (p *PID) Update(err float64, dt time.Duration) float64 {
	h := dt.Seconds()
	if h <= 0 {
		h = 1e-9
	}
	deriv := 0.0
	if p.havePrev {
		deriv = (err - p.prevErr) / h
	}
	p.prevErr = err
	p.havePrev = true

	raw := p.kp*err + p.ki*(p.integral+err*h) + p.kd*deriv
	// Conditional integration: only accumulate when not pushing further
	// into saturation.
	if (raw < p.outHi || err < 0) && (raw > p.outLo || err > 0) {
		p.integral += err * h
	}
	out := p.kp*err + p.ki*p.integral + p.kd*deriv
	if out < p.outLo {
		return p.outLo
	}
	if out > p.outHi {
		return p.outHi
	}
	return out
}

// Reset clears the controller state.
func (p *PID) Reset() {
	p.integral = 0
	p.prevErr = 0
	p.havePrev = false
}

// FirstOrder is a first-order lag y' = (u − y)/τ, the lumped model used for
// air-volume and building thermal mass (paper §2.2: "air cooling systems
// have slow dynamics").
type FirstOrder struct {
	tau time.Duration
	y   float64
}

// NewFirstOrder builds a lag with time constant tau and initial output y0.
func NewFirstOrder(tau time.Duration, y0 float64) (*FirstOrder, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("control: time constant %v must be positive", tau)
	}
	return &FirstOrder{tau: tau, y: y0}, nil
}

// Step advances the lag by dt with input u using the exact discretization
// y += (u − y)(1 − e^(−dt/τ)) and returns the new output.
func (f *FirstOrder) Step(u float64, dt time.Duration) float64 {
	alpha := 1 - math.Exp(-dt.Seconds()/f.tau.Seconds())
	f.y += (u - f.y) * alpha
	return f.y
}

// Output reports the current output without advancing.
func (f *FirstOrder) Output() float64 { return f.y }

// Set forces the output (used to initialize from measured conditions).
func (f *FirstOrder) Set(y float64) { f.y = y }

// DelayLine models a pure transport delay: values pushed in emerge after
// the configured delay. It is sampled on a fixed tick; paper §2.2 notes
// CRAC actions "take long propagation delays to reach the servers".
type DelayLine struct {
	buf  []float64
	head int
}

// NewDelayLine builds a delay of delay seconds sampled every tick, filled
// with the initial value.
func NewDelayLine(delay, tick time.Duration, initial float64) (*DelayLine, error) {
	if tick <= 0 {
		return nil, fmt.Errorf("control: delay-line tick %v must be positive", tick)
	}
	if delay < 0 {
		return nil, fmt.Errorf("control: delay %v must be non-negative", delay)
	}
	n := int(delay / tick)
	if n < 1 {
		n = 1
	}
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = initial
	}
	return &DelayLine{buf: buf}, nil
}

// Step pushes u in and returns the value that emerges (u delayed).
func (d *DelayLine) Step(u float64) float64 {
	out := d.buf[d.head]
	d.buf[d.head] = u
	d.head = (d.head + 1) % len(d.buf)
	return out
}

// Deadband passes its input through unchanged but reports zero change when
// the input moved less than width from the last emitted value. CRAC
// controllers use it to avoid reacting to small fluctuations.
type Deadband struct {
	width float64
	last  float64
	init  bool
}

// NewDeadband builds a deadband of the given width.
func NewDeadband(width float64) (*Deadband, error) {
	if width < 0 {
		return nil, fmt.Errorf("control: deadband width %v must be non-negative", width)
	}
	return &Deadband{width: width}, nil
}

// Update returns the value to act on: the new input if it escaped the band,
// otherwise the previously emitted value.
func (d *Deadband) Update(x float64) float64 {
	if !d.init || math.Abs(x-d.last) > d.width {
		d.last = x
		d.init = true
	}
	return d.last
}
