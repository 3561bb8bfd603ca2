// Package vm models the virtualization substrate of §4.4: VMs with
// multi-resource sizes and time-varying CPU demand, hosts with capacities,
// and placement policies, including the two phenomena the paper singles
// out:
//
//   - non-additive interference: "due to disk contention, putting two disk
//     IO intensive applications on the same host machine may cause
//     significant throughput degradation";
//   - correlation-aware co-location: "two processes, or VMs, from
//     different applications are unlikely to generate power spikes at the
//     same time. This will reduce the probability of power capping" (§5.2).
package vm

import (
	"fmt"
	"math"
	"time"

	"repro/internal/trace"
)

// Resources is a multi-dimensional resource vector.
type Resources struct {
	// CPU is in cores.
	CPU float64
	// MemGB is in gigabytes.
	MemGB float64
	// DiskIOPS is the sustained IO operations per second.
	DiskIOPS float64
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPU: r.CPU + o.CPU, MemGB: r.MemGB + o.MemGB, DiskIOPS: r.DiskIOPS + o.DiskIOPS}
}

// Fits reports whether r fits within capacity c.
func (r Resources) Fits(c Resources) bool {
	return r.CPU <= c.CPU && r.MemGB <= c.MemGB && r.DiskIOPS <= c.DiskIOPS
}

// Validate checks non-negativity.
func (r Resources) Validate() error {
	if r.CPU < 0 || r.MemGB < 0 || r.DiskIOPS < 0 {
		return fmt.Errorf("vm: negative resource vector %+v", r)
	}
	return nil
}

// VM is one virtual machine.
type VM struct {
	// Name identifies the VM.
	Name string
	// Size is the reserved resource vector.
	Size Resources
	// CPUDemand is the VM's CPU utilization over time as a fraction of
	// Size.CPU (nil means constantly at its reservation).
	CPUDemand *trace.Series
}

// Validate checks the VM definition.
func (v *VM) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("vm: VM needs a name")
	}
	if err := v.Size.Validate(); err != nil {
		return err
	}
	if v.Size.CPU <= 0 {
		return fmt.Errorf("vm: %s needs positive CPU size", v.Name)
	}
	return nil
}

// CPUAt returns the VM's absolute CPU demand (cores) at time t.
func (v *VM) CPUAt(t time.Duration) float64 {
	if v.CPUDemand == nil {
		return v.Size.CPU
	}
	u := v.CPUDemand.At(t)
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u * v.Size.CPU
}

// Host is a physical machine hosting VMs.
type Host struct {
	// Name identifies the host.
	Name string
	// Capacity is the host resource vector.
	Capacity Resources
	// DiskContentionPenalty is the extra throughput loss per additional
	// disk-heavy VM sharing the host (seek amplification): with k heavy
	// VMs, effective IO capacity is Capacity.DiskIOPS·(1−p)^(k−1).
	DiskContentionPenalty float64
	// IOHeavyThreshold classifies a VM as disk-heavy when its DiskIOPS
	// reservation exceeds this fraction of host IO capacity.
	IOHeavyThreshold float64

	vms []*VM
}

// NewHost builds a host.
func NewHost(name string, capacity Resources) (*Host, error) {
	if name == "" {
		return nil, fmt.Errorf("vm: host needs a name")
	}
	if err := capacity.Validate(); err != nil {
		return nil, err
	}
	if capacity.CPU <= 0 {
		return nil, fmt.Errorf("vm: host %s needs positive CPU capacity", name)
	}
	return &Host{
		Name:                  name,
		Capacity:              capacity,
		DiskContentionPenalty: 0.25,
		IOHeavyThreshold:      0.30,
	}, nil
}

// VMs returns the hosted VMs (shared slice: do not mutate).
func (h *Host) VMs() []*VM { return h.vms }

// Used sums the reservations of hosted VMs.
func (h *Host) Used() Resources {
	var total Resources
	for _, v := range h.vms {
		total = total.Add(v.Size)
	}
	return total
}

// CanFit reports whether the VM's reservation fits in the remaining
// capacity.
func (h *Host) CanFit(v *VM) bool {
	return h.Used().Add(v.Size).Fits(h.Capacity)
}

// Place adds a VM; it errors when the reservation does not fit or the
// name collides.
func (h *Host) Place(v *VM) error {
	if err := v.Validate(); err != nil {
		return err
	}
	for _, existing := range h.vms {
		if existing.Name == v.Name {
			return fmt.Errorf("vm: %s already on host %s", v.Name, h.Name)
		}
	}
	if !h.CanFit(v) {
		return fmt.Errorf("vm: %s does not fit on host %s (used %+v, capacity %+v)",
			v.Name, h.Name, h.Used(), h.Capacity)
	}
	h.vms = append(h.vms, v)
	return nil
}

// CPUDemandAt returns the host's total CPU demand (cores) at time t.
func (h *Host) CPUDemandAt(t time.Duration) float64 {
	var total float64
	for _, v := range h.vms {
		total += v.CPUAt(t)
	}
	return total
}

// CPUPeak scans the hosted VMs' demand series and returns the peak of the
// *sum* (which, for anti-correlated VMs, is far below the sum of peaks).
// The horizon and step are taken from the longest series; hosts with only
// static VMs return the sum of reservations.
func (h *Host) CPUPeak() float64 {
	var step time.Duration
	var n int
	for _, v := range h.vms {
		if v.CPUDemand != nil && v.CPUDemand.Len() > 0 {
			if n == 0 || v.CPUDemand.Len() > n {
				n = v.CPUDemand.Len()
				step = v.CPUDemand.Step
			}
		}
	}
	if n == 0 {
		return h.Used().CPU
	}
	var peak float64
	for i := 0; i < n; i++ {
		t := time.Duration(i) * step
		if d := h.CPUDemandAt(t); d > peak {
			peak = d
		}
	}
	return peak
}

// CheckInvariants verifies the host's physical constraints: placed
// reservations fit inside capacity and the contention factor is a valid
// fraction. It satisfies the invariant layer's Checkable interface (the
// time argument is unused because hosts carry no clock of their own).
func (h *Host) CheckInvariants(_ time.Duration) error {
	used := h.Used()
	if !used.Fits(h.Capacity) {
		return fmt.Errorf("vm: host %s overcommitted: used %+v exceeds capacity %+v",
			h.Name, used, h.Capacity)
	}
	if used.CPU < 0 || used.MemGB < 0 || used.DiskIOPS < 0 {
		return fmt.Errorf("vm: host %s has negative usage %+v", h.Name, used)
	}
	if f := h.DiskThroughputFactor(); f <= 0 || f > 1 || math.IsNaN(f) {
		return fmt.Errorf("vm: host %s disk throughput factor %v out of (0,1]", h.Name, f)
	}
	return nil
}

// ioHeavy reports whether a VM counts as disk-IO-intensive on this host.
func (h *Host) ioHeavy(v *VM) bool {
	if h.Capacity.DiskIOPS <= 0 {
		return false
	}
	return v.Size.DiskIOPS >= h.IOHeavyThreshold*h.Capacity.DiskIOPS
}

// DiskThroughputFactor returns the effective disk throughput of the host
// as a fraction of nominal, capturing non-additive contention: each
// disk-heavy VM beyond the first multiplies capacity by
// (1 − DiskContentionPenalty).
func (h *Host) DiskThroughputFactor() float64 {
	heavy := 0
	for _, v := range h.vms {
		if h.ioHeavy(v) {
			heavy++
		}
	}
	if heavy <= 1 {
		return 1
	}
	return math.Pow(1-h.DiskContentionPenalty, float64(heavy-1))
}

// EffectiveDiskIOPS is the host's contended IO capacity.
func (h *Host) EffectiveDiskIOPS() float64 {
	return h.Capacity.DiskIOPS * h.DiskThroughputFactor()
}
