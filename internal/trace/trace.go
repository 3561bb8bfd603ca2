// Package trace generates the workload and environment time series that
// drive every experiment: diurnal/weekly demand with flash crowds
// (reproducing the Windows Live Messenger load of the paper's Figure 3),
// the Animoto-style scale-out surge quoted in §3, and outside-air weather
// traces for air-side economizer studies (§2.2).
//
// The paper uses production traces that are not public; these generators
// synthesize series with exactly the properties the paper cites — a 2:1
// afternoon-to-midnight swing, weekday demand above weekend demand, and
// short login flash crowds — from a seeded random source, so every run is
// reproducible.
package trace

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Series is a regularly-sampled time series starting at simulated time 0.
type Series struct {
	// Step is the sampling interval between consecutive values.
	Step time.Duration
	// Values holds one sample per step, Values[i] being the value at
	// time i*Step.
	Values []float64
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Duration reports the time span covered by the series.
func (s *Series) Duration() time.Duration {
	return time.Duration(len(s.Values)) * s.Step
}

// At returns the value at time t using linear interpolation between
// samples. Times before the start clamp to the first sample; times at or
// beyond the end clamp to the last.
func (s *Series) At(t time.Duration) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	if t <= 0 {
		return s.Values[0]
	}
	pos := float64(t) / float64(s.Step)
	i := int(pos)
	if i >= len(s.Values)-1 {
		return s.Values[len(s.Values)-1]
	}
	frac := pos - float64(i)
	return s.Values[i]*(1-frac) + s.Values[i+1]*frac
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	var m float64
	for i, v := range s.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	var m float64
	for i, v := range s.Values {
		if i == 0 || v < m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean of the samples.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Scale multiplies every sample by k in place and returns the series.
func (s *Series) Scale(k float64) *Series {
	for i := range s.Values {
		s.Values[i] *= k
	}
	return s
}

// Normalize rescales the series so its maximum equals max. A series whose
// maximum is zero is left unchanged.
func (s *Series) Normalize(max float64) *Series {
	m := s.Max()
	if m == 0 {
		return s
	}
	return s.Scale(max / m)
}

// Window extracts the sub-series covering [from, to). Bounds are clamped
// to the series extent.
func (s *Series) Window(from, to time.Duration) *Series {
	lo := int(from / s.Step)
	hi := int(to / s.Step)
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	if lo > hi {
		lo = hi
	}
	vals := make([]float64, hi-lo)
	copy(vals, s.Values[lo:hi])
	return &Series{Step: s.Step, Values: vals}
}

// CSV renders the series as "seconds,value" lines with a header, suitable
// for plotting the reproduced figures.
func (s *Series) CSV(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seconds,%s\n", name)
	for i, v := range s.Values {
		fmt.Fprintf(&b, "%d,%.6g\n", int64((time.Duration(i) * s.Step).Seconds()), v)
	}
	return b.String()
}

// hourOfDay returns the fractional hour of day [0,24) for elapsed time t,
// assuming the trace starts at midnight on a Monday.
func hourOfDay(t time.Duration) float64 {
	h := math.Mod(t.Hours(), 24)
	if h < 0 {
		h += 24
	}
	return h
}

// dayOfWeek returns 0 (Monday) … 6 (Sunday) for elapsed time t, assuming
// the trace starts at midnight on a Monday.
func dayOfWeek(t time.Duration) int {
	d := int(t.Hours()/24) % 7
	if d < 0 {
		d += 7
	}
	return d
}

// isWeekend reports whether elapsed time t falls on Saturday or Sunday.
func isWeekend(t time.Duration) bool { return dayOfWeek(t) >= 5 }

// arNoise is a mean-one AR(1) multiplicative noise process whose
// stationary standard deviation equals sd exactly, so generator configs
// can state noise levels directly.
type arNoise struct {
	rho   float64
	innov float64 // innovation sd = sd*sqrt(1-rho²)
	state float64 // deviation from 1
}

func newARNoise(rho, sd float64) *arNoise {
	return &arNoise{rho: rho, innov: sd * math.Sqrt(1-rho*rho)}
}

// next advances the process one step and returns the multiplicative
// factor, clamped at zero.
func (a *arNoise) next(draw func(mean, sd float64) float64) float64 {
	a.state = a.rho*a.state + draw(0, a.innov)
	f := 1 + a.state
	if f < 0 {
		return 0
	}
	return f
}
