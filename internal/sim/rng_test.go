package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	g := NewRNG(7)
	a := g.Fork("workload")
	g2 := NewRNG(7)
	b := g2.Fork("failures")
	// Different labels from the same parent state should diverge.
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("forks with different labels coincide on %d/50 draws", same)
	}
	// Same label from same parent state must match (determinism).
	c := NewRNG(7).Fork("workload")
	d := NewRNG(7).Fork("workload")
	for i := 0; i < 50; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("same-label forks differ")
		}
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(2)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exp(4) // mean 0.25
	}
	mean := sum / n
	if math.Abs(mean-0.25) > 0.01 {
		t.Errorf("Exp(4) sample mean = %v, want ~0.25", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(3)
	const n = 50000
	var sum, ss float64
	for i := 0; i < n; i++ {
		x := g.Normal(10, 2)
		sum += x
		ss += x * x
	}
	mean := sum / n
	sd := math.Sqrt(ss/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("Normal sd = %v, want ~2", sd)
	}
}

func TestPoissonMoments(t *testing.T) {
	g := NewRNG(4)
	for _, mean := range []float64{0.5, 3, 20, 200} { // spans both algorithms
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(g.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if g.Poisson(0) != 0 || g.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestBernoulli(t *testing.T) {
	g := NewRNG(6)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) hit rate = %v", p)
	}
}

func TestIntnAndInt63(t *testing.T) {
	g := NewRNG(8)
	for i := 0; i < 100; i++ {
		if v := g.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		if g.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}
