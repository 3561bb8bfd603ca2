// Package oversub provides the statistical machinery behind §3.1's
// oversubscription argument: "the host oversells its services to the
// extent that if every subscriber uses the services at the same time, the
// capacity will be exceeded. However, due to the statistical variations
// of utilization, with overwhelming probability, the host is safe."
//
// It offers empirical, trace-driven violation measurement with
// safe-capacity and safe-ratio searches, and an analytic Gaussian
// aggregate (with pairwise correlation — anti-correlated tenants
// oversubscribe more safely) that the tests hold the empirical path
// against.
package oversub

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Gaussian models the aggregate power demand of n tenants as a normal
// sum: tenant i has mean Means[i] and standard deviation SDs[i];
// every pair is correlated with coefficient Rho.
type Gaussian struct {
	Means []float64
	SDs   []float64
	Rho   float64
}

// Validate checks the model.
func (g Gaussian) Validate() error {
	if len(g.Means) == 0 || len(g.Means) != len(g.SDs) {
		return fmt.Errorf("oversub: need matching non-empty means/sds, got %d/%d", len(g.Means), len(g.SDs))
	}
	for i := range g.Means {
		if g.Means[i] < 0 || g.SDs[i] < 0 {
			return fmt.Errorf("oversub: tenant %d has negative parameters", i)
		}
	}
	if g.Rho < -1 || g.Rho > 1 {
		return fmt.Errorf("oversub: correlation %v out of [-1,1]", g.Rho)
	}
	return nil
}

// Mean returns the aggregate mean demand.
func (g Gaussian) Mean() float64 { return stats.Sum(g.Means) }

// SD returns the aggregate standard deviation:
// sqrt(Σσ² + ρ·Σ_{i≠j} σiσj).
func (g Gaussian) SD() float64 {
	var varSum, crossSum, sdSum float64
	for _, sd := range g.SDs {
		varSum += sd * sd
		sdSum += sd
	}
	// Σ_{i≠j} σiσj = (Σσ)² − Σσ².
	crossSum = sdSum*sdSum - varSum
	v := varSum + g.Rho*crossSum
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// ViolationProbability returns P(total demand > capacity).
func (g Gaussian) ViolationProbability(capacity float64) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	sd := g.SD()
	if sd == 0 {
		if g.Mean() > capacity {
			return 1, nil
		}
		return 0, nil
	}
	return stats.NormalTail((capacity - g.Mean()) / sd), nil
}

// SafeCapacity returns the smallest capacity whose violation probability
// is at most epsilon: mean + z(1−ε)·sd.
func (g Gaussian) SafeCapacity(epsilon float64) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if epsilon <= 0 || epsilon >= 1 {
		return 0, fmt.Errorf("oversub: epsilon %v out of (0,1)", epsilon)
	}
	z, err := stats.NormalQuantile(1 - epsilon)
	if err != nil {
		return 0, err
	}
	return g.Mean() + z*g.SD(), nil
}

// Empirical computes trace-driven oversubscription statistics from
// per-tenant demand series (all series must share the same step; shorter
// series end early and contribute nothing past their end).
type Empirical struct {
	totals []float64
	peaks  []float64
}

// NewEmpirical aligns the series sample-by-sample.
func NewEmpirical(tenants []*trace.Series) (*Empirical, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("oversub: need at least one tenant series")
	}
	step := tenants[0].Step
	n := 0
	for i, s := range tenants {
		if s.Step != step {
			return nil, fmt.Errorf("oversub: tenant %d step %v != %v", i, s.Step, step)
		}
		if s.Len() > n {
			n = s.Len()
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("oversub: all tenant series empty")
	}
	e := &Empirical{totals: make([]float64, n), peaks: make([]float64, len(tenants))}
	for ti, s := range tenants {
		for i, v := range s.Values {
			e.totals[i] += v
			if v > e.peaks[ti] {
				e.peaks[ti] = v
			}
		}
	}
	return e, nil
}

// SumOfPeaks is the static worst-case provisioning level: every tenant at
// its own peak simultaneously.
func (e *Empirical) SumOfPeaks() float64 { return stats.Sum(e.peaks) }

// ViolationFraction is the fraction of time the aggregate exceeds the
// given capacity.
func (e *Empirical) ViolationFraction(capacity float64) float64 {
	if len(e.totals) == 0 {
		return 0
	}
	over := 0
	for _, v := range e.totals {
		if v > capacity {
			over++
		}
	}
	return float64(over) / float64(len(e.totals))
}

// CapacityFor returns the smallest capacity with violation fraction at
// most epsilon — the (1−ε) quantile of the aggregate.
func (e *Empirical) CapacityFor(epsilon float64) (float64, error) {
	if epsilon < 0 || epsilon >= 1 {
		return 0, fmt.Errorf("oversub: epsilon %v out of [0,1)", epsilon)
	}
	sorted := make([]float64, len(e.totals))
	copy(sorted, e.totals)
	sort.Float64s(sorted)
	idx := int(math.Ceil(float64(len(sorted))*(1-epsilon))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx], nil
}

// SafeRatio returns the oversubscription ratio achievable at violation
// tolerance epsilon: worst-case provisioning divided by the (1−ε)
// aggregate quantile. A ratio of 1.4 means the facility can promise 40 %
// more nameplate capacity than it physically has.
func (e *Empirical) SafeRatio(epsilon float64) (float64, error) {
	q, err := e.CapacityFor(epsilon)
	if err != nil {
		return 0, err
	}
	if q <= 0 {
		return 0, fmt.Errorf("oversub: degenerate aggregate quantile %v", q)
	}
	return e.SumOfPeaks() / q, nil
}

// UtilizationGain compares average utilization of the facility under
// worst-case provisioning vs oversubscribed provisioning at tolerance
// epsilon.
func (e *Empirical) UtilizationGain(epsilon float64) (staticUtil, oversubUtil float64, err error) {
	if len(e.totals) == 0 {
		return 0, 0, fmt.Errorf("oversub: empty aggregate")
	}
	mean := stats.Mean(e.totals)
	static := e.SumOfPeaks()
	if static <= 0 {
		return 0, 0, fmt.Errorf("oversub: degenerate worst case")
	}
	q, err := e.CapacityFor(epsilon)
	if err != nil {
		return 0, 0, err
	}
	if q <= 0 {
		return 0, 0, fmt.Errorf("oversub: degenerate quantile")
	}
	return mean / static, mean / q, nil
}
