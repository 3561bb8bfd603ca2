// Package stats provides the statistical substrate used throughout the
// elastic power-management library: streaming moments, percentiles,
// correlation, Gaussian tail bounds, and the Erlang-C queueing formula.
// Everything is allocation-conscious and deterministic; no global state
// is kept.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Running accumulates streaming mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// AddN folds the same observation in n times (useful for weighted series).
func (r *Running) AddN(x float64, n int) {
	for i := 0; i < n; i++ {
		r.Add(x)
	}
}

// N reports the number of observations.
func (r *Running) N() int { return r.n }

// Mean reports the running mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Min reports the smallest observation, or 0 with no observations.
func (r *Running) Min() float64 { return r.min }

// Max reports the largest observation, or 0 with no observations.
func (r *Running) Max() float64 { return r.max }

// Variance reports the unbiased sample variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev reports the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Sum reports the total of all observations.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }

// Merge combines another accumulator into this one (parallel Welford merge).
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	delta := o.mean - r.mean
	total := r.n + o.n
	r.m2 += o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(total)
	r.mean += delta * float64(o.n) / float64(total)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = total
}

// String summarizes the accumulator for logs.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		r.n, r.Mean(), r.StdDev(), r.min, r.max)
}

// Mean computes the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum computes the total of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Variance computes the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev computes the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax reports the extrema of xs. It returns ErrEmpty for an empty slice.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Desc is a four-number summary of a sample set — the aggregate the
// parallel experiment harness reports per experiment across seed
// replications. JSON tags keep the machine-readable sidecar stable.
type Desc struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	StdDev float64 `json:"stddev"`
}

// Describe reduces xs to its four-number summary. It returns ErrEmpty for
// an empty slice.
func Describe(xs []float64) (Desc, error) {
	if len(xs) == 0 {
		return Desc{}, ErrEmpty
	}
	min, max, err := MinMax(xs)
	if err != nil {
		return Desc{}, err
	}
	return Desc{
		N:      len(xs),
		Mean:   Mean(xs),
		Min:    min,
		Max:    max,
		StdDev: StdDev(xs),
	}, nil
}

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between order statistics. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,1]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p), nil
}

// Percentiles returns several quantiles of xs at once, sorting only once.
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, 0, len(ps))
	for _, p := range ps {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("stats: percentile %v out of [0,1]", p)
		}
		out = append(out, quantileSorted(sorted, p))
	}
	return out, nil
}

func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Correlation computes the Pearson correlation coefficient of two
// equal-length series. It returns 0 when either series is constant.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Autocorrelation computes the lag-k autocorrelation of xs.
func Autocorrelation(xs []float64, lag int) (float64, error) {
	if lag < 0 || lag >= len(xs) {
		return 0, fmt.Errorf("stats: lag %d out of range for %d samples", lag, len(xs))
	}
	return Correlation(xs[:len(xs)-lag], xs[lag:])
}

// Detrend subtracts a centered moving average of the given window from xs,
// returning the residual series. It is used by telemetry queries that
// correlate load-balancer behaviour after removing the hourly trend
// (paper §5.3). Window must be odd and positive.
func Detrend(xs []float64, window int) ([]float64, error) {
	if window <= 0 || window%2 == 0 {
		return nil, fmt.Errorf("stats: detrend window %d must be positive and odd", window)
	}
	if window > len(xs) {
		return nil, fmt.Errorf("stats: detrend window %d exceeds series length %d", window, len(xs))
	}
	half := window / 2
	out := make([]float64, len(xs))
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(xs) {
			hi = len(xs)
		}
		out[i] = xs[i] - Mean(xs[lo:hi])
	}
	return out, nil
}

// NormalCDF evaluates the standard normal cumulative distribution at z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalTail evaluates P(Z > z) for a standard normal Z.
func NormalTail(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// NormalQuantile returns z such that NormalCDF(z) = p, via the
// Acklam rational approximation refined with one Newton step. p must be
// in (0,1).
func NormalQuantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("stats: quantile argument %v out of (0,1)", p)
	}
	// Acklam's approximation coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	var z float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		z = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		z = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		z = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Newton refinement using the analytic density.
	e := NormalCDF(z) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(z*z/2)
	z -= u / (1 + z*u/2)
	return z, nil
}

// ErlangC returns the probability that an arriving job must queue in an
// M/M/c system with offered load a = lambda/mu Erlangs and c servers.
// It returns 1 when the system is unstable (a >= c).
func ErlangC(c int, a float64) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("stats: ErlangC needs c > 0, got %d", c)
	}
	if a < 0 {
		return 0, fmt.Errorf("stats: ErlangC needs a >= 0, got %v", a)
	}
	if a >= float64(c) {
		return 1, nil
	}
	// Iterative Erlang-B then convert, numerically stable for large c.
	eb := 1.0
	for k := 1; k <= c; k++ {
		eb = a * eb / (float64(k) + a*eb)
	}
	rho := a / float64(c)
	return eb / (1 - rho + rho*eb), nil
}

// MMcWait returns the mean waiting time (excluding service) in an M/M/c
// queue with arrival rate lambda, per-server service rate mu, and c servers.
// It returns +Inf when unstable.
func MMcWait(c int, lambda, mu float64) (float64, error) {
	if mu <= 0 {
		return 0, fmt.Errorf("stats: MMcWait needs mu > 0, got %v", mu)
	}
	a := lambda / mu
	pq, err := ErlangC(c, a)
	if err != nil {
		return 0, err
	}
	if a >= float64(c) {
		return math.Inf(1), nil
	}
	return pq / (float64(c)*mu - lambda), nil
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
