package vm

import (
	"math"
	"testing"
	"time"

	"repro/internal/trace"
)

func mkHost(t *testing.T, name string, cpu float64) *Host {
	t.Helper()
	h, err := NewHost(name, Resources{CPU: cpu, MemGB: cpu * 4, DiskIOPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mkVM(name string, cpu float64) *VM {
	return &VM{Name: name, Size: Resources{CPU: cpu, MemGB: cpu * 2, DiskIOPS: 50}}
}

// sineSeries builds a 24h utilization series peaking at the given hour.
func sineSeries(peakHour float64) *trace.Series {
	vals := make([]float64, 24*60)
	for i := range vals {
		h := float64(i) / 60
		vals[i] = 0.5 + 0.5*math.Cos(2*math.Pi*(h-peakHour)/24)
	}
	return &trace.Series{Step: time.Minute, Values: vals}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPU: 1, MemGB: 2, DiskIOPS: 3}
	b := Resources{CPU: 10, MemGB: 20, DiskIOPS: 30}
	sum := a.Add(b)
	if sum.CPU != 11 || sum.MemGB != 22 || sum.DiskIOPS != 33 {
		t.Errorf("Add = %+v", sum)
	}
	if !a.Fits(b) {
		t.Error("small should fit in large")
	}
	if b.Fits(a) {
		t.Error("large should not fit in small")
	}
	if err := (Resources{CPU: -1}).Validate(); err == nil {
		t.Error("negative resources should error")
	}
}

func TestVMValidateAndDemand(t *testing.T) {
	v := mkVM("a", 2)
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if (&VM{Name: "", Size: Resources{CPU: 1}}).Validate() == nil {
		t.Error("unnamed VM should error")
	}
	if (&VM{Name: "x", Size: Resources{CPU: 0}}).Validate() == nil {
		t.Error("zero-CPU VM should error")
	}
	// Static demand equals the reservation.
	if v.CPUAt(time.Hour) != 2 {
		t.Errorf("static demand = %v, want 2", v.CPUAt(time.Hour))
	}
	// Traced demand follows the series, clamped.
	v.CPUDemand = &trace.Series{Step: time.Hour, Values: []float64{0.5, 2.0, -1.0}}
	if got := v.CPUAt(0); got != 1 {
		t.Errorf("traced demand = %v, want 1 (0.5 × 2 cores)", got)
	}
	if got := v.CPUAt(time.Hour); got != 2 {
		t.Errorf("over-demand = %v, want clamp at reservation 2", got)
	}
	if got := v.CPUAt(2 * time.Hour); got != 0 {
		t.Errorf("negative demand = %v, want clamp at 0", got)
	}
}

func TestHostPlace(t *testing.T) {
	h := mkHost(t, "h1", 8)
	if err := h.Place(mkVM("a", 4)); err != nil {
		t.Fatal(err)
	}
	if err := h.Place(mkVM("a", 1)); err == nil {
		t.Error("duplicate name should error")
	}
	if err := h.Place(mkVM("b", 5)); err == nil {
		t.Error("over-capacity placement should error")
	}
	if err := h.Place(mkVM("b", 4)); err != nil {
		t.Fatal(err)
	}
	if got := h.Used().CPU; got != 8 {
		t.Errorf("used CPU = %v, want 8", got)
	}
}

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost("", Resources{CPU: 1}); err == nil {
		t.Error("unnamed host should error")
	}
	if _, err := NewHost("h", Resources{CPU: 0}); err == nil {
		t.Error("zero-CPU host should error")
	}
	if _, err := NewHost("h", Resources{CPU: 1, MemGB: -1}); err == nil {
		t.Error("negative memory should error")
	}
}

func TestAntiCorrelatedVMsPeakBelowSumOfPeaks(t *testing.T) {
	// The §5.2 argument: day-peaking + night-peaking VMs on one host
	// produce a combined peak far below the sum of individual peaks.
	h := mkHost(t, "h1", 8)
	day := &VM{Name: "day", Size: Resources{CPU: 4}, CPUDemand: sineSeries(14)}
	night := &VM{Name: "night", Size: Resources{CPU: 4}, CPUDemand: sineSeries(2)}
	if err := h.Place(day); err != nil {
		t.Fatal(err)
	}
	if err := h.Place(night); err != nil {
		t.Fatal(err)
	}
	peak := h.CPUPeak()
	sumOfPeaks := 8.0 // each peaks at its full 4 cores
	if peak >= 0.8*sumOfPeaks {
		t.Errorf("anti-correlated combined peak = %v, want well below %v", peak, sumOfPeaks)
	}
	// Correlated VMs, by contrast, peak together.
	h2 := mkHost(t, "h2", 8)
	a := &VM{Name: "a", Size: Resources{CPU: 4}, CPUDemand: sineSeries(14)}
	b := &VM{Name: "b", Size: Resources{CPU: 4}, CPUDemand: sineSeries(14)}
	if err := h2.Place(a); err != nil {
		t.Fatal(err)
	}
	if err := h2.Place(b); err != nil {
		t.Fatal(err)
	}
	if h2.CPUPeak() < 0.95*sumOfPeaks {
		t.Errorf("correlated combined peak = %v, want ~%v", h2.CPUPeak(), sumOfPeaks)
	}
}

func TestCPUPeakStaticVMs(t *testing.T) {
	h := mkHost(t, "h", 8)
	if err := h.Place(mkVM("a", 3)); err != nil {
		t.Fatal(err)
	}
	if got := h.CPUPeak(); got != 3 {
		t.Errorf("static peak = %v, want 3", got)
	}
}

func TestDiskInterferenceNonAdditive(t *testing.T) {
	h, err := NewHost("h", Resources{CPU: 16, MemGB: 64, DiskIOPS: 1300})
	if err != nil {
		t.Fatal(err)
	}
	// One IO-heavy VM: full throughput.
	heavy1 := &VM{Name: "io1", Size: Resources{CPU: 2, DiskIOPS: 400}}
	if err := h.Place(heavy1); err != nil {
		t.Fatal(err)
	}
	if got := h.DiskThroughputFactor(); got != 1 {
		t.Errorf("single heavy VM factor = %v, want 1", got)
	}
	// A light VM does not contend.
	if err := h.Place(&VM{Name: "light", Size: Resources{CPU: 1, DiskIOPS: 20}}); err != nil {
		t.Fatal(err)
	}
	if got := h.DiskThroughputFactor(); got != 1 {
		t.Errorf("heavy+light factor = %v, want 1", got)
	}
	// A second heavy VM degrades beyond simple sharing.
	heavy2 := &VM{Name: "io2", Size: Resources{CPU: 2, DiskIOPS: 400}}
	if err := h.Place(heavy2); err != nil {
		t.Fatal(err)
	}
	got := h.DiskThroughputFactor()
	if got >= 1 {
		t.Errorf("two heavy VMs factor = %v, want < 1", got)
	}
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("factor = %v, want 0.75 with default penalty", got)
	}
	if eff := h.EffectiveDiskIOPS(); math.Abs(eff-975) > 1e-9 {
		t.Errorf("effective IOPS = %v, want 975", eff)
	}
	// Third heavy VM compounds (threshold is 0.30 × 1300 = 390 IOPS).
	if err := h.Place(&VM{Name: "io3", Size: Resources{CPU: 2, DiskIOPS: 400}}); err != nil {
		t.Fatal(err)
	}
	if h.DiskThroughputFactor() >= got {
		t.Error("third heavy VM did not compound degradation")
	}
}
