package vm

import "fmt"

// Policy selects a placement strategy.
type Policy int

// Placement policies.
const (
	// FirstFit places each VM on the first host with room.
	FirstFit Policy = iota + 1
	// BestFit places each VM on the feasible host with the least
	// remaining CPU (tightest packing → most hosts freed).
	BestFit
	// CorrelationAware places each VM on the feasible host that
	// minimizes the resulting *peak* of summed CPU demand (§5.2),
	// preferring hosts whose existing VMs peak at other times — the
	// paper's cyber-physical co-design suggestion for reducing
	// power-capping probability.
	CorrelationAware
	// InterferenceAware behaves like BestFit but refuses to co-locate a
	// second disk-heavy VM on a host that already has one while any
	// alternative exists (§4.4).
	InterferenceAware
)

// String renders the policy.
func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case CorrelationAware:
		return "correlation-aware"
	case InterferenceAware:
		return "interference-aware"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Place assigns every VM to a host under the given policy, mutating the
// hosts. It returns the mapping VM name → host name. Placement is greedy
// in the order given; an error unwinds nothing (callers own transactional
// behaviour), so validate feasibility with total capacity beforehand when
// that matters.
func Place(vms []*VM, hosts []*Host, policy Policy) (map[string]string, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("vm: no hosts to place on")
	}
	out := make(map[string]string, len(vms))
	for _, v := range vms {
		h, err := choose(v, hosts, policy)
		if err != nil {
			return out, fmt.Errorf("vm: placing %s: %w", v.Name, err)
		}
		if err := h.Place(v); err != nil {
			return out, err
		}
		out[v.Name] = h.Name
	}
	return out, nil
}

func choose(v *VM, hosts []*Host, policy Policy) (*Host, error) {
	feasible := make([]*Host, 0, len(hosts))
	for _, h := range hosts {
		if h.CanFit(v) {
			feasible = append(feasible, h)
		}
	}
	if len(feasible) == 0 {
		return nil, fmt.Errorf("no feasible host")
	}
	switch policy {
	case FirstFit:
		return feasible[0], nil
	case BestFit:
		best := feasible[0]
		bestLeft := best.Capacity.CPU - best.Used().CPU
		for _, h := range feasible[1:] {
			left := h.Capacity.CPU - h.Used().CPU
			if left < bestLeft {
				best, bestLeft = h, left
			}
		}
		return best, nil
	case CorrelationAware:
		best := feasible[0]
		bestPeak := peakWith(best, v)
		for _, h := range feasible[1:] {
			if p := peakWith(h, v); p < bestPeak {
				best, bestPeak = h, p
			}
		}
		return best, nil
	case InterferenceAware:
		// Prefer hosts where adding v keeps at most one disk-heavy VM.
		var clean []*Host
		for _, h := range feasible {
			heavy := 0
			if h.ioHeavy(v) {
				heavy++
			}
			for _, existing := range h.VMs() {
				if h.ioHeavy(existing) {
					heavy++
				}
			}
			if heavy <= 1 {
				clean = append(clean, h)
			}
		}
		pool := clean
		if len(pool) == 0 {
			pool = feasible // degrade to best-fit rather than fail
		}
		best := pool[0]
		bestLeft := best.Capacity.CPU - best.Used().CPU
		for _, h := range pool[1:] {
			left := h.Capacity.CPU - h.Used().CPU
			if left < bestLeft {
				best, bestLeft = h, left
			}
		}
		return best, nil
	default:
		return nil, fmt.Errorf("unknown policy %v", policy)
	}
}

// peakWith estimates the host's CPU-demand peak if v were added.
func peakWith(h *Host, v *VM) float64 {
	h.vms = append(h.vms, v)
	peak := h.CPUPeak()
	h.vms = h.vms[:len(h.vms)-1]
	return peak
}
