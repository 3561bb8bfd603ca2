package metrics

import (
	"testing"
	"time"
)

func TestSLAAccumulator(t *testing.T) {
	a, err := NewSLAAccumulator(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	a.Observe(50 * time.Millisecond)
	a.Observe(150 * time.Millisecond)
	a.Observe(90 * time.Millisecond)
	a.Observe(400 * time.Millisecond)
	if a.Total() != 4 || a.Violations() != 2 {
		t.Errorf("total=%d violations=%d", a.Total(), a.Violations())
	}
	if a.ViolationRate() != 0.5 {
		t.Errorf("rate = %v, want 0.5", a.ViolationRate())
	}
	if a.Worst() != 400*time.Millisecond {
		t.Errorf("worst = %v", a.Worst())
	}
	if _, err := NewSLAAccumulator(0); err == nil {
		t.Error("zero target should error")
	}
	empty, _ := NewSLAAccumulator(time.Second)
	if empty.ViolationRate() != 0 {
		t.Error("empty accumulator rate should be 0")
	}
}
