package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if !almost(r.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// Population sd is 2; sample variance = 32/7.
	if !almost(r.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
	if !almost(r.Sum(), 40, 1e-9) {
		t.Errorf("Sum = %v, want 40", r.Sum())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.N() != 0 {
		t.Errorf("zero-value Running should report zeros, got %s", r.String())
	}
}

// sanitize maps arbitrary quick-generated floats into a numerically tame
// range so overflow does not mask genuine algorithmic bugs.
func sanitize(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, math.Mod(x, 1e6))
	}
	return out
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	check := func(rawXs, rawYs []float64) bool {
		xs, ys := sanitize(rawXs), sanitize(rawYs)
		var all, a, b Running
		for _, x := range xs {
			all.Add(x)
			a.Add(x)
		}
		for _, y := range ys {
			all.Add(y)
			b.Add(y)
		}
		a.Merge(b)
		if a.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		return almost(a.Mean(), all.Mean(), 1e-9*(1+math.Abs(all.Mean()))) &&
			almost(a.Variance(), all.Variance(), 1e-6*(1+all.Variance()))
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestMeanVariance(t *testing.T) {
	tests := []struct {
		name     string
		xs       []float64
		mean     float64
		variance float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3}, 3, 0},
		{"pair", []float64{1, 3}, 2, 2},
		{"constant", []float64{5, 5, 5, 5}, 5, 0},
		{"mixed", []float64{-1, 0, 1}, 0, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almost(got, tt.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
			if got := Variance(tt.xs); !almost(got, tt.variance, 1e-12) {
				t.Errorf("Variance = %v, want %v", got, tt.variance)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{1, 50},
		{0.5, 35},
		{0.25, 20},
		{0.75, 40},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if !almost(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Error("Percentile on empty slice should error")
	}
	if _, err := Percentile(xs, 1.5); err == nil {
		t.Error("Percentile out of range should error")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	got, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	got, err = Correlation(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v, want -1", got)
	}
	flat := []float64{7, 7, 7, 7, 7}
	got, err = Correlation(xs, flat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("correlation with constant = %v, want 0", got)
	}
	if _, err := Correlation(xs, xs[:3]); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestCorrelationBounded(t *testing.T) {
	check := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 4 {
			return true
		}
		n := len(xs) / 2
		c, err := Correlation(xs[:n], xs[n:2*n])
		if err != nil {
			return false
		}
		return c >= -1-1e-9 && c <= 1+1e-9 && !math.IsNaN(c)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDetrendRemovesConstantOffset(t *testing.T) {
	xs := make([]float64, 21)
	for i := range xs {
		xs[i] = 100 // constant series: residual must be ~0 everywhere
	}
	res, err := Detrend(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !almost(r, 0, 1e-9) {
			t.Errorf("residual[%d] = %v, want 0", i, r)
		}
	}
	if _, err := Detrend(xs, 4); err == nil {
		t.Error("even window should error")
	}
	if _, err := Detrend(xs[:3], 5); err == nil {
		t.Error("window larger than series should error")
	}
}

func TestNormalCDFAndTail(t *testing.T) {
	tests := []struct {
		z   float64
		cdf float64
		tol float64
	}{
		{0, 0.5, 1e-12},
		{1.96, 0.975, 1e-3},
		{-1.96, 0.025, 1e-3},
		{3, 0.99865, 1e-4},
	}
	for _, tt := range tests {
		if got := NormalCDF(tt.z); !almost(got, tt.cdf, tt.tol) {
			t.Errorf("NormalCDF(%v) = %v, want %v", tt.z, got, tt.cdf)
		}
		if got := NormalTail(tt.z); !almost(got, 1-tt.cdf, tt.tol) {
			t.Errorf("NormalTail(%v) = %v, want %v", tt.z, got, 1-tt.cdf)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatalf("NormalQuantile(%v): %v", p, err)
		}
		if back := NormalCDF(z); !almost(back, p, 1e-8) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, back)
		}
	}
	for _, p := range []float64{0, 1, -0.5, 2} {
		if _, err := NormalQuantile(p); err == nil {
			t.Errorf("NormalQuantile(%v) should error", p)
		}
	}
}

func TestErlangC(t *testing.T) {
	// Known value: c=2, a=1 Erlang → P(wait) = 1/3.
	got, err := ErlangC(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 1.0/3.0, 1e-12) {
		t.Errorf("ErlangC(2,1) = %v, want 1/3", got)
	}
	// Single server reduces to rho.
	got, err = ErlangC(1, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 0.7, 1e-12) {
		t.Errorf("ErlangC(1,0.7) = %v, want 0.7", got)
	}
	// Unstable system always waits.
	got, err = ErlangC(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("unstable ErlangC = %v, want 1", got)
	}
	if _, err := ErlangC(0, 1); err == nil {
		t.Error("c=0 should error")
	}
	if _, err := ErlangC(2, -1); err == nil {
		t.Error("negative load should error")
	}
}

func TestErlangCIsProbability(t *testing.T) {
	check := func(c uint8, load float64) bool {
		servers := int(c%64) + 1
		a := math.Abs(load)
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		a = math.Mod(a, float64(servers)) // keep stable
		p, err := ErlangC(servers, a)
		if err != nil {
			return false
		}
		return p >= 0 && p <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMMcWait(t *testing.T) {
	// M/M/1: W = rho/(mu - lambda) with rho = lambda/mu.
	w, err := MMcWait(1, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(w, 1.0, 1e-12) {
		t.Errorf("M/M/1 wait = %v, want 1", w)
	}
	w, err = MMcWait(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(w, 1) {
		t.Errorf("unstable wait = %v, want +Inf", w)
	}
	if _, err := MMcWait(1, 1, 0); err == nil {
		t.Error("mu=0 should error")
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 4, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if min != -1 || max != 5 {
		t.Errorf("MinMax = %v/%v, want -1/5", min, max)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("empty MinMax should error")
	}
}
