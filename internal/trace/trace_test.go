package trace

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSeriesAtInterpolates(t *testing.T) {
	s := &Series{Step: time.Minute, Values: []float64{0, 10, 20}}
	tests := []struct {
		at   time.Duration
		want float64
	}{
		{-time.Minute, 0}, // clamp below
		{0, 0},
		{30 * time.Second, 5},
		{time.Minute, 10},
		{90 * time.Second, 15},
		{2 * time.Minute, 20},
		{time.Hour, 20}, // clamp above
	}
	for _, tt := range tests {
		if got := s.At(tt.at); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestSeriesEmptyAt(t *testing.T) {
	s := &Series{Step: time.Second}
	if s.At(time.Second) != 0 {
		t.Error("empty series At should be 0")
	}
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Error("empty series aggregates should be 0")
	}
}

func TestSeriesAggregates(t *testing.T) {
	s := &Series{Step: time.Second, Values: []float64{3, -1, 4, 1, 5}}
	if s.Max() != 5 || s.Min() != -1 {
		t.Errorf("Max/Min = %v/%v", s.Max(), s.Min())
	}
	if math.Abs(s.Mean()-2.4) > 1e-12 {
		t.Errorf("Mean = %v, want 2.4", s.Mean())
	}
	if s.Duration() != 5*time.Second {
		t.Errorf("Duration = %v, want 5s", s.Duration())
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
}

func TestSeriesScaleNormalize(t *testing.T) {
	s := &Series{Step: time.Second, Values: []float64{1, 2, 4}}
	s.Scale(2)
	if s.Values[2] != 8 {
		t.Errorf("Scale: %v", s.Values)
	}
	s.Normalize(100)
	if s.Max() != 100 || s.Values[0] != 25 {
		t.Errorf("Normalize: %v", s.Values)
	}
	zero := &Series{Step: time.Second, Values: []float64{0, 0}}
	zero.Normalize(5) // must not divide by zero
	if zero.Values[0] != 0 {
		t.Error("Normalize of zero series changed values")
	}
}

func TestSeriesWindow(t *testing.T) {
	s := &Series{Step: time.Minute, Values: []float64{0, 1, 2, 3, 4, 5}}
	w := s.Window(time.Minute, 4*time.Minute)
	if w.Len() != 3 || w.Values[0] != 1 || w.Values[2] != 3 {
		t.Errorf("Window = %v", w.Values)
	}
	// Mutating the window must not touch the parent.
	w.Values[0] = 99
	if s.Values[1] == 99 {
		t.Error("Window aliases parent storage")
	}
	if out := s.Window(10*time.Minute, 20*time.Minute); out.Len() != 0 {
		t.Errorf("out-of-range window has %d samples", out.Len())
	}
	if inv := s.Window(4*time.Minute, time.Minute); inv.Len() != 0 {
		t.Errorf("inverted window has %d samples", inv.Len())
	}
}

func TestSeriesCSV(t *testing.T) {
	s := &Series{Step: time.Second, Values: []float64{1.5, 2.5}}
	csv := s.CSV("load")
	if !strings.HasPrefix(csv, "seconds,load\n") {
		t.Errorf("CSV header missing: %q", csv)
	}
	if !strings.Contains(csv, "0,1.5\n") || !strings.Contains(csv, "1,2.5\n") {
		t.Errorf("CSV rows wrong: %q", csv)
	}
}

func TestCalendarHelpers(t *testing.T) {
	if h := hourOfDay(26 * time.Hour); math.Abs(h-2) > 1e-9 {
		t.Errorf("hourOfDay(26h) = %v, want 2", h)
	}
	if d := dayOfWeek(0); d != 0 {
		t.Errorf("dayOfWeek(0) = %d, want 0 (Monday)", d)
	}
	if d := dayOfWeek(5 * 24 * time.Hour); d != 5 {
		t.Errorf("dayOfWeek(+5d) = %d, want 5 (Saturday)", d)
	}
	if !isWeekend(5*24*time.Hour) || !isWeekend(6*24*time.Hour) {
		t.Error("Saturday/Sunday should be weekend")
	}
	if isWeekend(4 * 24 * time.Hour) {
		t.Error("Friday should not be weekend")
	}
	if isWeekend(7 * 24 * time.Hour) {
		t.Error("the following Monday should not be weekend")
	}
}
