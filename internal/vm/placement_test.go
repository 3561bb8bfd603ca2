package vm

import (
	"testing"
)

func hosts3(t *testing.T) []*Host {
	t.Helper()
	return []*Host{mkHost(t, "h1", 8), mkHost(t, "h2", 8), mkHost(t, "h3", 8)}
}

func TestFirstFit(t *testing.T) {
	hs := hosts3(t)
	placed, err := Place([]*VM{mkVM("a", 4), mkVM("b", 4), mkVM("c", 4)}, hs, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if placed["a"] != "h1" || placed["b"] != "h1" || placed["c"] != "h2" {
		t.Errorf("first-fit placement = %v", placed)
	}
}

func TestBestFitPacksTightest(t *testing.T) {
	hs := hosts3(t)
	// Pre-load h2 so it has the least remaining CPU.
	if err := hs[1].Place(mkVM("pre", 6)); err != nil {
		t.Fatal(err)
	}
	placed, err := Place([]*VM{mkVM("a", 2)}, hs, BestFit)
	if err != nil {
		t.Fatal(err)
	}
	if placed["a"] != "h2" {
		t.Errorf("best-fit chose %s, want h2", placed["a"])
	}
}

func TestPlaceErrors(t *testing.T) {
	if _, err := Place([]*VM{mkVM("a", 1)}, nil, FirstFit); err == nil {
		t.Error("no hosts should error")
	}
	hs := []*Host{mkHost(t, "h1", 2)}
	if _, err := Place([]*VM{mkVM("a", 4)}, hs, FirstFit); err == nil {
		t.Error("infeasible VM should error")
	}
	if _, err := Place([]*VM{mkVM("a", 1)}, hs, Policy(99)); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestCorrelationAwarePairsOppositePhases(t *testing.T) {
	// Two hosts; day VM on each. A night VM should land with a day VM
	// (low combined peak) under the correlation-aware policy, but a new
	// day VM should land on whichever host minimizes the peak — not
	// simply pack.
	h1, h2 := mkHost(t, "h1", 8), mkHost(t, "h2", 8)
	day1 := &VM{Name: "day1", Size: Resources{CPU: 4}, CPUDemand: sineSeries(14)}
	if err := h1.Place(day1); err != nil {
		t.Fatal(err)
	}
	night := &VM{Name: "night", Size: Resources{CPU: 4}, CPUDemand: sineSeries(2)}
	day2 := &VM{Name: "day2", Size: Resources{CPU: 4}, CPUDemand: sineSeries(14)}

	if _, err := Place([]*VM{night, day2}, []*Host{h1, h2}, CorrelationAware); err != nil {
		t.Fatal(err)
	}
	// Whichever host received the night VM, the policy must never stack
	// day2 on top of day1 (that would double the peak).
	sameHost := func(a, b *VM) bool {
		for _, h := range []*Host{h1, h2} {
			has := map[string]bool{}
			for _, v := range h.VMs() {
				has[v.Name] = true
			}
			if has[a.Name] && has[b.Name] {
				return true
			}
		}
		return false
	}
	if sameHost(day1, day2) {
		t.Error("correlation-aware stacked two day-peaking VMs on one host")
	}
	// The correlation-aware layout's worst host peak beats the naive
	// (first-fit) layout's.
	worst := func(hs []*Host) float64 {
		var w float64
		for _, h := range hs {
			if p := h.CPUPeak(); p > w {
				w = p
			}
		}
		return w
	}
	smart := worst([]*Host{h1, h2})

	n1, n2 := mkHost(t, "n1", 8), mkHost(t, "n2", 8)
	d1 := &VM{Name: "day1", Size: Resources{CPU: 4}, CPUDemand: sineSeries(14)}
	if err := n1.Place(d1); err != nil {
		t.Fatal(err)
	}
	if _, err := Place([]*VM{
		{Name: "day2", Size: Resources{CPU: 4}, CPUDemand: sineSeries(14)},
		{Name: "night", Size: Resources{CPU: 4}, CPUDemand: sineSeries(2)},
	}, []*Host{n1, n2}, FirstFit); err != nil {
		t.Fatal(err)
	}
	naive := worst([]*Host{n1, n2})
	if smart >= naive {
		t.Errorf("correlation-aware worst peak %v not below naive %v", smart, naive)
	}
}

func TestInterferenceAwareSeparatesHeavyVMs(t *testing.T) {
	h1, h2 := mkHost(t, "h1", 16), mkHost(t, "h2", 16)
	heavy := func(name string) *VM {
		return &VM{Name: name, Size: Resources{CPU: 2, DiskIOPS: 400}}
	}
	placed, err := Place([]*VM{heavy("io1"), heavy("io2")}, []*Host{h1, h2}, InterferenceAware)
	if err != nil {
		t.Fatal(err)
	}
	if placed["io1"] == placed["io2"] {
		t.Errorf("interference-aware co-located two disk-heavy VMs: %v", placed)
	}
	if h1.DiskThroughputFactor() != 1 || h2.DiskThroughputFactor() != 1 {
		t.Error("separated heavy VMs should not degrade throughput")
	}
	// When no clean host remains, it degrades to packing rather than
	// failing.
	placed2, err := Place([]*VM{heavy("io3")}, []*Host{h1, h2}, InterferenceAware)
	if err != nil {
		t.Fatal(err)
	}
	if placed2["io3"] == "" {
		t.Error("io3 not placed")
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		FirstFit: "first-fit", BestFit: "best-fit",
		CorrelationAware: "correlation-aware", InterferenceAware: "interference-aware",
		Policy(42): "policy(42)",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}
