package control

import (
	"math"
	"testing"
)

func TestEWMAConvergesToConstant(t *testing.T) {
	e, err := NewEWMA(0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e.Observe(7)
	}
	if math.Abs(e.Forecast(1)-7) > 1e-9 {
		t.Errorf("EWMA forecast = %v, want 7", e.Forecast(1))
	}
	if e.Forecast(1) != e.Forecast(5) {
		t.Error("EWMA forecast should be flat across horizons")
	}
}

func TestEWMAFirstObservationSetsLevel(t *testing.T) {
	e, _ := NewEWMA(0.1)
	e.Observe(42)
	if e.Forecast(1) != 42 {
		t.Errorf("first observation level = %v, want 42", e.Forecast(1))
	}
}

func TestEWMAValidation(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.5} {
		if _, err := NewEWMA(a); err == nil {
			t.Errorf("alpha=%v should error", a)
		}
	}
	if _, err := NewEWMA(1); err != nil {
		t.Errorf("alpha=1 should be accepted: %v", err)
	}
}

func TestHoltTracksLinearRamp(t *testing.T) {
	h, err := NewHolt(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Feed y = 3t + 10; forecast k steps ahead should be ~3(t+k)+10.
	var tEnd int
	for i := 0; i <= 50; i++ {
		h.Observe(3*float64(i) + 10)
		tEnd = i
	}
	for _, k := range []int{1, 5, 10} {
		want := 3*float64(tEnd+k) + 10
		got := h.Forecast(k)
		if math.Abs(got-want) > 0.5 {
			t.Errorf("Holt forecast(+%d) = %v, want ~%v", k, got, want)
		}
	}
	if got, want := h.Forecast(0), h.Forecast(1); got != want {
		t.Errorf("Forecast(0) should clamp to 1 step: %v vs %v", got, want)
	}
}

func TestHoltValidation(t *testing.T) {
	if _, err := NewHolt(0, 0.5); err == nil {
		t.Error("alpha=0 should error")
	}
	if _, err := NewHolt(0.5, 2); err == nil {
		t.Error("beta=2 should error")
	}
}

func TestMovingWindowHeadroom(t *testing.T) {
	m, err := NewMovingWindow(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Forecast(1) != 0 {
		t.Error("empty window should forecast 0")
	}
	m.Observe(10)
	if m.Forecast(1) != 10 {
		t.Errorf("single observation forecast = %v, want 10 (no sd yet)", m.Forecast(1))
	}
	for _, x := range []float64{10, 10, 10} {
		m.Observe(x)
	}
	// Constant window: sd = 0, forecast = mean.
	if m.Forecast(1) != 10 {
		t.Errorf("constant window forecast = %v, want 10", m.Forecast(1))
	}
	// Now vary: forecast must exceed the mean by k*sd.
	m.Observe(20)
	m.Observe(20)
	f := m.Forecast(1)
	if f <= 15 {
		t.Errorf("headroom forecast = %v, want > mean 15", f)
	}
}

func TestMovingWindowEvictsOldest(t *testing.T) {
	m, err := NewMovingWindow(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(100)
	m.Observe(1)
	m.Observe(3) // evicts 100
	if got := m.Forecast(1); got != 2 {
		t.Errorf("window mean = %v, want 2 after eviction", got)
	}
}

func TestMovingWindowValidation(t *testing.T) {
	if _, err := NewMovingWindow(0, 1); err == nil {
		t.Error("zero-size window should error")
	}
}
