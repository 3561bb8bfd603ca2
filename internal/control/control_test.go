package control

import (
	"math"
	"testing"
	"time"
)

func TestPIDConvergesFirstOrderPlant(t *testing.T) {
	// Plant: y' = (u - y)/tau. The controller should drive y to the
	// setpoint without violating its clamp.
	pid, err := NewPID(2.0, 1.0, 0.0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := NewFirstOrder(10*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	const setpoint = 5.0
	dt := time.Second
	var y float64
	for i := 0; i < 600; i++ {
		u := pid.Update(setpoint-y, dt)
		if u < 0 || u > 10 {
			t.Fatalf("control output %v escaped clamp", u)
		}
		y = plant.Step(u, dt)
	}
	if math.Abs(y-setpoint) > 0.05 {
		t.Errorf("PID settled at %v, want %v", y, setpoint)
	}
}

func TestPIDClampAndReset(t *testing.T) {
	pid, err := NewPID(100, 0, 0, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := pid.Update(1000, time.Second); got != 1 {
		t.Errorf("saturated output = %v, want 1", got)
	}
	if got := pid.Update(-1000, time.Second); got != -1 {
		t.Errorf("saturated output = %v, want -1", got)
	}
	pid.Reset()
	if got := pid.Update(0, time.Second); got != 0 {
		t.Errorf("after reset, zero error gives %v, want 0", got)
	}
	if _, err := NewPID(1, 0, 0, 5, 5); err == nil {
		t.Error("invalid clamp should error")
	}
}

func TestPIDAntiWindup(t *testing.T) {
	// Drive hard into saturation, then reverse; with anti-windup the
	// output must leave saturation promptly (within a few steps).
	pid, err := NewPID(0.1, 1.0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		pid.Update(10, time.Second) // deep saturation high
	}
	steps := 0
	for ; steps < 10; steps++ {
		if pid.Update(-1, time.Second) < 1 {
			break
		}
	}
	if steps >= 10 {
		t.Error("integral wind-up: output stuck at clamp after error reversed")
	}
}

func TestFirstOrderStepResponse(t *testing.T) {
	f, err := NewFirstOrder(time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	// After exactly one time constant the response to a unit step is 1-1/e.
	y := f.Step(1, time.Minute)
	want := 1 - math.Exp(-1)
	if math.Abs(y-want) > 1e-12 {
		t.Errorf("one-tau response = %v, want %v", y, want)
	}
	// Converges to the input.
	for i := 0; i < 100; i++ {
		y = f.Step(1, time.Minute)
	}
	if math.Abs(y-1) > 1e-9 {
		t.Errorf("settled at %v, want 1", y)
	}
	if f.Output() != y {
		t.Errorf("Output = %v, want %v", f.Output(), y)
	}
	f.Set(42)
	if f.Output() != 42 {
		t.Error("Set did not force output")
	}
	if _, err := NewFirstOrder(0, 0); err == nil {
		t.Error("zero time constant should error")
	}
}

func TestFirstOrderStepSizeInvariance(t *testing.T) {
	// Exact discretization: many small steps == one big step.
	a, _ := NewFirstOrder(time.Minute, 0)
	b, _ := NewFirstOrder(time.Minute, 0)
	for i := 0; i < 60; i++ {
		a.Step(1, time.Second)
	}
	b.Step(1, time.Minute)
	if math.Abs(a.Output()-b.Output()) > 1e-9 {
		t.Errorf("step-size dependence: %v vs %v", a.Output(), b.Output())
	}
}

func TestDelayLine(t *testing.T) {
	d, err := NewDelayLine(3*time.Second, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []float64{1, 2, 3, 4, 5, 6}
	var outputs []float64
	for _, u := range inputs {
		outputs = append(outputs, d.Step(u))
	}
	// First three outputs are the initial fill; then inputs delayed by 3.
	want := []float64{0, 0, 0, 1, 2, 3}
	for i := range want {
		if outputs[i] != want[i] {
			t.Fatalf("outputs = %v, want %v", outputs, want)
		}
	}
	if _, err := NewDelayLine(time.Second, 0, 0); err == nil {
		t.Error("zero tick should error")
	}
	if _, err := NewDelayLine(-time.Second, time.Second, 0); err == nil {
		t.Error("negative delay should error")
	}
	// Zero delay still delays by one tick (minimum line length).
	z, err := NewDelayLine(0, time.Second, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.Step(1); got != 9 {
		t.Errorf("minimum delay line first output = %v, want 9", got)
	}
}

func TestDeadband(t *testing.T) {
	d, err := NewDeadband(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Update(10); got != 10 {
		t.Errorf("first update = %v, want 10", got)
	}
	if got := d.Update(10.5); got != 10 {
		t.Errorf("inside band = %v, want 10", got)
	}
	if got := d.Update(11.5); got != 11.5 {
		t.Errorf("outside band = %v, want 11.5", got)
	}
	if _, err := NewDeadband(-1); err == nil {
		t.Error("negative width should error")
	}
}
