package control

import (
	"fmt"
	"math"
)

// Forecaster predicts the next value of a series from observations folded
// in so far. Provisioning policies (paper §3.1, after Chen et al. [18])
// forecast demand to decide how many servers to keep awake.
type Forecaster interface {
	// Observe folds in one observation.
	Observe(x float64)
	// Forecast predicts the value `steps` observations ahead (steps >= 1).
	Forecast(steps int) float64
}

// EWMA is an exponentially weighted moving-average forecaster. Its
// forecast is flat (the current level).
type EWMA struct {
	alpha float64
	level float64
	init  bool
}

var _ Forecaster = (*EWMA)(nil)

// NewEWMA builds an EWMA with smoothing factor alpha in (0,1].
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("control: EWMA alpha %v out of (0,1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Observe folds in one observation.
func (e *EWMA) Observe(x float64) {
	if !e.init {
		e.level = x
		e.init = true
		return
	}
	e.level += e.alpha * (x - e.level)
}

// Forecast returns the current level regardless of horizon.
func (e *EWMA) Forecast(int) float64 { return e.level }

// Holt is a Holt linear-trend (double exponential) forecaster, which
// tracks ramping demand such as flash-crowd onsets much faster than a flat
// EWMA.
type Holt struct {
	alpha, beta  float64
	level, trend float64
	n            int
}

var _ Forecaster = (*Holt)(nil)

// NewHolt builds a forecaster with level smoothing alpha and trend
// smoothing beta, both in (0,1].
func NewHolt(alpha, beta float64) (*Holt, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("control: Holt alpha %v out of (0,1]", alpha)
	}
	if beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("control: Holt beta %v out of (0,1]", beta)
	}
	return &Holt{alpha: alpha, beta: beta}, nil
}

// Observe folds in one observation.
func (h *Holt) Observe(x float64) {
	switch h.n {
	case 0:
		h.level = x
	case 1:
		h.trend = x - h.level
		h.level = x
	default:
		prev := h.level
		h.level = h.alpha*x + (1-h.alpha)*(h.level+h.trend)
		h.trend = h.beta*(h.level-prev) + (1-h.beta)*h.trend
	}
	h.n++
}

// Forecast extrapolates the trend `steps` ahead.
func (h *Holt) Forecast(steps int) float64 {
	if steps < 1 {
		steps = 1
	}
	return h.level + float64(steps)*h.trend
}

// MovingWindow is a sliding-window forecaster that predicts the windowed
// mean plus a configurable number of standard deviations of headroom —
// the classic "mean + kσ" provisioning rule.
type MovingWindow struct {
	buf   []float64
	head  int
	count int
	k     float64
}

var _ Forecaster = (*MovingWindow)(nil)

// NewMovingWindow builds a window of n observations with headroom k
// standard deviations.
func NewMovingWindow(n int, k float64) (*MovingWindow, error) {
	if n <= 0 {
		return nil, fmt.Errorf("control: window size %d must be positive", n)
	}
	return &MovingWindow{buf: make([]float64, n), k: k}, nil
}

// Observe folds in one observation.
func (m *MovingWindow) Observe(x float64) {
	m.buf[m.head] = x
	m.head = (m.head + 1) % len(m.buf)
	if m.count < len(m.buf) {
		m.count++
	}
}

// Forecast returns mean + k·σ of the window regardless of horizon.
func (m *MovingWindow) Forecast(int) float64 {
	if m.count == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < m.count; i++ {
		sum += m.buf[i]
	}
	mean := sum / float64(m.count)
	if m.count < 2 {
		return mean
	}
	var ss float64
	for i := 0; i < m.count; i++ {
		d := m.buf[i] - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(m.count-1))
	return mean + m.k*sd
}
