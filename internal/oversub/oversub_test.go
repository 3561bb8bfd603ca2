package oversub

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestGaussianValidation(t *testing.T) {
	tests := []struct {
		name string
		g    Gaussian
	}{
		{"empty", Gaussian{}},
		{"mismatch", Gaussian{Means: []float64{1}, SDs: []float64{1, 2}}},
		{"negative mean", Gaussian{Means: []float64{-1}, SDs: []float64{1}}},
		{"negative sd", Gaussian{Means: []float64{1}, SDs: []float64{-1}}},
		{"rho out of range", Gaussian{Means: []float64{1}, SDs: []float64{1}, Rho: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.g.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestGaussianMoments(t *testing.T) {
	g := Gaussian{Means: []float64{100, 100}, SDs: []float64{10, 10}, Rho: 0}
	if g.Mean() != 200 {
		t.Errorf("Mean = %v, want 200", g.Mean())
	}
	// Independent: sd = sqrt(200).
	if math.Abs(g.SD()-math.Sqrt(200)) > 1e-12 {
		t.Errorf("independent SD = %v, want %v", g.SD(), math.Sqrt(200))
	}
	// Perfect correlation: sd = 20.
	g.Rho = 1
	if math.Abs(g.SD()-20) > 1e-9 {
		t.Errorf("correlated SD = %v, want 20", g.SD())
	}
	// Perfect anti-correlation: sd = 0.
	g.Rho = -1
	if g.SD() > 1e-9 {
		t.Errorf("anti-correlated SD = %v, want 0", g.SD())
	}
}

func TestViolationProbability(t *testing.T) {
	g := Gaussian{Means: []float64{100}, SDs: []float64{10}}
	p, err := g.ViolationProbability(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-9 {
		t.Errorf("P(>mean) = %v, want 0.5", p)
	}
	p, err = g.ViolationProbability(120) // two sigma
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.02275) > 1e-3 {
		t.Errorf("P(>mean+2sd) = %v, want ~0.0228", p)
	}
	// Deterministic tenants.
	d := Gaussian{Means: []float64{100}, SDs: []float64{0}}
	if p, _ := d.ViolationProbability(99); p != 1 {
		t.Errorf("deterministic over capacity = %v, want 1", p)
	}
	if p, _ := d.ViolationProbability(101); p != 0 {
		t.Errorf("deterministic under capacity = %v, want 0", p)
	}
	bad := Gaussian{}
	if _, err := bad.ViolationProbability(1); err == nil {
		t.Error("invalid model should error")
	}
}

func TestSafeCapacityMeetsEpsilon(t *testing.T) {
	g := Gaussian{Means: []float64{100, 150, 200}, SDs: []float64{20, 10, 30}, Rho: 0.2}
	for _, eps := range []float64{0.1, 0.01, 0.001} {
		cap, err := g.SafeCapacity(eps)
		if err != nil {
			t.Fatal(err)
		}
		p, err := g.ViolationProbability(cap)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-eps) > 0.1*eps+1e-9 {
			t.Errorf("violation at safe capacity(%v) = %v", eps, p)
		}
	}
	if _, err := g.SafeCapacity(0); err == nil {
		t.Error("epsilon 0 should error")
	}
	if _, err := g.SafeCapacity(1); err == nil {
		t.Error("epsilon 1 should error")
	}
}

func TestAntiCorrelationEnablesMoreOversubscription(t *testing.T) {
	// The §5.2 claim quantified: at the same tolerance, anti-correlated
	// tenants need less capacity than correlated ones.
	correlated := Gaussian{Means: []float64{100, 100}, SDs: []float64{20, 20}, Rho: 0.9}
	antiCorr := Gaussian{Means: []float64{100, 100}, SDs: []float64{20, 20}, Rho: -0.9}
	cc, err := correlated.SafeCapacity(0.001)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := antiCorr.SafeCapacity(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if ca >= cc {
		t.Errorf("anti-correlated capacity %v not below correlated %v", ca, cc)
	}
	// Highly correlated tenants cannot be oversubscribed much: their
	// safe capacity approaches the worst case. Anti-correlated tenants
	// leave a large gap below the static rule of every tenant at
	// mean + 3σ at once.
	const worst = 2 * (100 + 3*20)
	if worst <= ca*1.2 {
		t.Errorf("worst case %v should comfortably exceed anti-correlated safe capacity %v", worst, ca)
	}
}

// TestGaussianMatchesEmpirical checks the analytic model against the
// trace-driven path: tenants drawn with a common factor,
// x_i = μ_i + σ_i(√ρ·z + √(1−ρ)·e_i), are Gaussian with pairwise
// correlation ρ, so the empirical violation fraction at the model's safe
// capacity for ε must sit within four binomial standard errors of ε.
func TestGaussianMatchesEmpirical(t *testing.T) {
	const n = 50_000
	means := []float64{100, 150, 200, 120}
	sds := []float64{20, 10, 30, 15}
	for _, rho := range []float64{0, 0.3, 0.8} {
		t.Run(fmt.Sprintf("rho=%v", rho), func(t *testing.T) {
			rng := sim.NewRNG(7)
			tenants := make([]*trace.Series, len(means))
			for i := range tenants {
				tenants[i] = &trace.Series{Step: time.Minute, Values: make([]float64, n)}
			}
			for k := 0; k < n; k++ {
				z := rng.Normal(0, 1)
				for i, s := range tenants {
					s.Values[k] = means[i] + sds[i]*(math.Sqrt(rho)*z+math.Sqrt(1-rho)*rng.Normal(0, 1))
				}
			}
			e, err := NewEmpirical(tenants)
			if err != nil {
				t.Fatal(err)
			}
			g := Gaussian{Means: means, SDs: sds, Rho: rho}
			for _, eps := range []float64{0.1, 0.01, 0.001} {
				t.Run(fmt.Sprintf("eps=%v", eps), func(t *testing.T) {
					c, err := g.SafeCapacity(eps)
					if err != nil {
						t.Fatal(err)
					}
					got := e.ViolationFraction(c)
					if bound := 4 * math.Sqrt(eps*(1-eps)/n); math.Abs(got-eps) > bound {
						t.Errorf("empirical violation %v at safe capacity %.2f, want within %.5f of %v",
							got, c, bound, eps)
					}
				})
			}
		})
	}
}

func diurnalPair(t *testing.T, phaseGapHours float64) []*trace.Series {
	t.Helper()
	rng := sim.NewRNG(1)
	a := trace.DefaultDiurnalConfig()
	a.Duration = 3 * 24 * time.Hour
	a.NoiseSD = 0.05
	a.BurstRate = 0
	b := a
	b.PeakHour = a.PeakHour + phaseGapHours
	sa, err := trace.GenerateDiurnal(a, rng.Fork("a"))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := trace.GenerateDiurnal(b, rng.Fork("b"))
	if err != nil {
		t.Fatal(err)
	}
	return []*trace.Series{sa, sb}
}

func TestEmpiricalPeakOfSumVsSumOfPeaks(t *testing.T) {
	// CapacityFor(0) is the peak of the aggregate.
	peakOfSum := func(e *Empirical) float64 {
		t.Helper()
		c, err := e.CapacityFor(0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	e, err := NewEmpirical(diurnalPair(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	if peakOfSum(e) >= e.SumOfPeaks() {
		t.Errorf("peak of sum %v not below sum of peaks %v for anti-correlated tenants",
			peakOfSum(e), e.SumOfPeaks())
	}
	// In-phase tenants: the two peaks nearly coincide.
	inPhase, err := NewEmpirical(diurnalPair(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	ratioAnti := peakOfSum(e) / e.SumOfPeaks()
	ratioIn := peakOfSum(inPhase) / inPhase.SumOfPeaks()
	if ratioAnti >= ratioIn {
		t.Errorf("anti-phase ratio %v not below in-phase ratio %v", ratioAnti, ratioIn)
	}
}

func TestEmpiricalViolationAndCapacity(t *testing.T) {
	e, err := NewEmpirical(diurnalPair(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	// Violation fraction is monotone decreasing in capacity.
	prev := 1.0
	for _, c := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0} {
		f := e.ViolationFraction(c * e.SumOfPeaks())
		if f > prev+1e-12 {
			t.Fatalf("violation fraction not monotone at %v", c)
		}
		prev = f
	}
	// CapacityFor meets its tolerance.
	for _, eps := range []float64{0.001, 0.01, 0.05} {
		cap, err := e.CapacityFor(eps)
		if err != nil {
			t.Fatal(err)
		}
		if f := e.ViolationFraction(cap); f > eps {
			t.Errorf("violation at CapacityFor(%v) = %v", eps, f)
		}
	}
	if _, err := e.CapacityFor(1); err == nil {
		t.Error("epsilon 1 should error")
	}
	if _, err := e.CapacityFor(-0.1); err == nil {
		t.Error("negative epsilon should error")
	}
}

func TestSafeRatioAboveOneForAntiCorrelated(t *testing.T) {
	e, err := NewEmpirical(diurnalPair(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := e.SafeRatio(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 1.05 {
		t.Errorf("safe ratio = %v, want meaningfully above 1 (oversubscription pays)", ratio)
	}
}

func TestUtilizationGain(t *testing.T) {
	e, err := NewEmpirical(diurnalPair(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	staticU, overU, err := e.UtilizationGain(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if overU <= staticU {
		t.Errorf("oversubscribed utilization %v not above static %v", overU, staticU)
	}
	if staticU <= 0 || overU > 1.01 {
		t.Errorf("utilizations out of range: static %v, oversub %v", staticU, overU)
	}
}

func TestNewEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical(nil); err == nil {
		t.Error("no tenants should error")
	}
	a := &trace.Series{Step: time.Minute, Values: []float64{1}}
	b := &trace.Series{Step: time.Hour, Values: []float64{1}}
	if _, err := NewEmpirical([]*trace.Series{a, b}); err == nil {
		t.Error("mismatched steps should error")
	}
	empty := &trace.Series{Step: time.Minute}
	if _, err := NewEmpirical([]*trace.Series{empty}); err == nil {
		t.Error("empty series should error")
	}
}

func TestGaussianSDNegativeVarianceClamped(t *testing.T) {
	// Strong anti-correlation with unequal sds can push the naive
	// variance formula negative; SD must clamp to zero, not NaN.
	g := Gaussian{Means: []float64{10, 10, 10}, SDs: []float64{5, 1, 1}, Rho: -1}
	if sd := g.SD(); math.IsNaN(sd) || sd < 0 {
		t.Errorf("SD = %v, want clamped non-negative", sd)
	}
}

func TestSafeCapacityValidation(t *testing.T) {
	bad := Gaussian{}
	if _, err := bad.SafeCapacity(0.01); err == nil {
		t.Error("invalid model should error")
	}
}

func TestViolationFractionEmpty(t *testing.T) {
	var e Empirical
	if e.ViolationFraction(10) != 0 {
		t.Error("empty aggregate should report 0")
	}
}

func TestSafeRatioErrors(t *testing.T) {
	e, err := NewEmpirical([]*trace.Series{{Step: time.Minute, Values: []float64{0, 0, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SafeRatio(0.01); err == nil {
		t.Error("all-zero aggregate should error (degenerate quantile)")
	}
	if _, err := e.SafeRatio(2); err == nil {
		t.Error("invalid epsilon should error")
	}
}

func TestUtilizationGainErrors(t *testing.T) {
	var empty Empirical
	if _, _, err := empty.UtilizationGain(0.01); err == nil {
		t.Error("empty aggregate should error")
	}
	zero, err := NewEmpirical([]*trace.Series{{Step: time.Minute, Values: []float64{0, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := zero.UtilizationGain(0.01); err == nil {
		t.Error("degenerate aggregate should error")
	}
}
