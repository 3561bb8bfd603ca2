package core

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Distributed is the hierarchical form of the macro-resource management
// layer: "although illustrated as a single unit, the macro-resource
// management layer is by no means centralized. It may consist of multiple
// sub-layers that are distributed over server clusters and data centers"
// (§3.2). A thin global layer splits offered demand into per-cluster
// shares (one message per cluster per period); each cluster runs its own
// full Manager on local information only.
type Distributed struct {
	clusters []*Manager
	names    []string
	shares   []float64
	engine   *sim.Engine
	period   time.Duration
	// messages counts global→cluster coordination messages, the
	// communication cost the paper asks about ("how to organize this
	// layer to perform desired coordination with efficient communication
	// among submodules").
	messages int64
}

// NewDistributed builds one cluster Manager per entry of clusterSizes,
// each configured from base (FleetSize and InitialOn are overridden per
// cluster), and splits the global demand proportionally to cluster
// capacity.
func NewDistributed(e *sim.Engine, base ManagerConfig, clusterSizes []int, demand DemandFunc) (*Distributed, error) {
	if len(clusterSizes) == 0 {
		return nil, fmt.Errorf("core: need at least one cluster")
	}
	if demand == nil {
		return nil, fmt.Errorf("core: nil demand function")
	}
	total := 0
	for i, n := range clusterSizes {
		if n <= 0 {
			return nil, fmt.Errorf("core: cluster %d size %d must be positive", i, n)
		}
		total += n
	}
	d := &Distributed{
		engine: e,
		period: base.DecisionPeriod,
		shares: make([]float64, len(clusterSizes)),
	}
	for i, n := range clusterSizes {
		d.shares[i] = float64(n) / float64(total)
		cfg := base
		cfg.FleetSize = n
		cfg.InitialOn = base.InitialOn * n / total
		if cfg.InitialOn > n {
			cfg.InitialOn = n
		}
		cfg.Trigger.Max = n
		if cfg.Trigger.Min > n {
			cfg.Trigger.Min = n
		}
		i := i
		local := func(now time.Duration) float64 {
			return demand(now) * d.shares[i]
		}
		m, err := NewManager(e, cfg, local)
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d: %w", i, err)
		}
		d.clusters = append(d.clusters, m)
		d.names = append(d.names, fmt.Sprintf("cluster-%d", i))
	}
	return d, nil
}

// Clusters exposes the cluster managers.
func (d *Distributed) Clusters() []*Manager { return d.clusters }

// Messages reports global→cluster share messages sent so far.
func (d *Distributed) Messages() int64 { return d.messages }

// Start launches the global share loop and every cluster manager, and
// returns their handles in that order. The global tick is scheduled first
// so share updates precede local decisions within a period (deterministic
// FIFO for simultaneous events).
func (d *Distributed) Start() []sim.Handle {
	handles := make([]sim.Handle, 0, 1+len(d.clusters))
	handles = append(handles, d.engine.Every(d.period, func(*sim.Engine) {
		// Static proportional split re-announced each period; a richer
		// policy would reweight by cluster health or efficiency.
		d.messages += int64(len(d.clusters))
	}))
	for _, m := range d.clusters {
		handles = append(handles, m.Start())
	}
	return handles
}

// Result aggregates the cluster results at now.
func (d *Distributed) Result(now time.Duration) RunResult {
	var agg RunResult
	agg.Mode = d.clusters[0].cfg.Mode
	var worst time.Duration
	var violSum, decSum float64
	var offered, dropped float64
	for _, m := range d.clusters {
		r := m.Result(now)
		agg.EnergyKWh += r.EnergyKWh
		agg.SwitchOns += r.SwitchOns
		agg.SwitchOffs += r.SwitchOffs
		agg.MeanActive += r.MeanActive
		if r.WorstResponse > worst {
			worst = r.WorstResponse
		}
		violSum += r.SLAViolationRate * float64(m.decisions)
		decSum += float64(m.decisions)
		offered += m.offeredTotal
		dropped += m.droppedTotal
	}
	agg.WorstResponse = worst
	if decSum > 0 {
		agg.SLAViolationRate = violSum / decSum
	}
	if offered > 0 {
		agg.DroppedFraction = dropped / offered
	}
	return agg
}
