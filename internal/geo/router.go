package geo

import (
	"time"

	"repro/internal/workload"
)

// SiteStats is one site's barrier aggregate: the O(1) numbers the
// router reads at every epoch boundary. All fields come from maintained
// counters — no per-server scan happens at the barrier.
type SiteStats struct {
	// Name and Weight echo the site's identity and the weight it served
	// the just-finished epoch with.
	Name   string
	Weight float64
	// PowerW is the instantaneous IT draw at the boundary; EnergyJ the
	// cumulative fleet energy; EpochEnergyJ the delta over the epoch.
	PowerW, EnergyJ, EpochEnergyJ float64
	// FleetSize, On, Active describe the server pool.
	FleetSize, On, Active int
	// Q is the latest fair-share grant; ShedLevel the admission ladder.
	Q         float64
	ShedLevel int
	// Breaker is the retry circuit-breaker state (BreakerClosed when
	// the site runs without a retry loop).
	Breaker workload.BreakerState
	// CapFactor is the manager's serving-capacity factor (< 1 during a
	// regional CapacityDip).
	CapFactor float64
	// ThermalHeadroom is 1 when the hottest zone inlet sits at or below
	// the nominal supply and 0 at the protective trip threshold
	// (facility sites; 1 without a facility substrate).
	ThermalHeadroom float64
	// CarbonIntensity is the site-local grid intensity (gCO2e/kWh) at
	// the boundary.
	CarbonIntensity float64
	// Offered, Rejected, Goodput, InRetry are cumulative user counters.
	Offered, Rejected, Goodput, InRetry float64
	// BreakerTrips and Trips count breaker openings and thermal trips.
	BreakerTrips int64
	Trips        int
	// At is the boundary's virtual time.
	At time.Duration
}

const (
	// minShare floors every site's routing weight so home users keep a
	// latency-respecting local share even when the router drains a
	// site. It bounds a federation to fewer than 1/minShare sites.
	minShare = 0.02
	// carbonGain scales the carbon term: a site whose local intensity
	// sits fraction f below the federation mean gets a 1+carbonGain*f
	// score boost.
	carbonGain = 0.5
)

// computeWeights derives the next epoch's routing weights from the
// barrier aggregates, writing into dst (len == len(stats)). It is a
// pure function evaluated in fixed site order, which is what makes the
// federation bit-identical under serial and parallel execution.
//
// Each site's raw score is its capacity share damped by multiplicative
// pressure terms — regional capacity loss, admission pressure (low fair
// share), breaker state, utilization headroom, thermal headroom, and
// (optionally) relative carbon intensity. Scores are then floored at
// minShare and normalized.
func computeWeights(cfg *Config, stats []SiteStats, dst []float64) {
	var fleetTotal int
	for i := range stats {
		fleetTotal += stats[i].FleetSize
	}
	var meanCarbon float64
	if cfg.CarbonAware {
		for i := range stats {
			meanCarbon += stats[i].CarbonIntensity
		}
		meanCarbon /= float64(len(stats))
	}
	var sum float64
	for i := range stats {
		st := &stats[i]
		score := float64(st.FleetSize) / float64(fleetTotal)
		// Regional capacity loss drains immediately and proportionally.
		score *= clamp01(st.CapFactor)
		// Admission pressure: a site granting Q below 1 is saturated.
		score *= 0.25 + 0.75*clamp01(st.Q)
		// Breaker state: an open breaker is a metastable site — keep
		// only a probe share; half-open recovers gently.
		switch st.Breaker {
		case workload.BreakerOpen:
			score *= 0.1
		case workload.BreakerHalfOpen:
			score *= 0.55
		}
		// Utilization headroom: prefer sites with idle capacity.
		util := 0.0
		if st.FleetSize > 0 {
			util = float64(st.Active) / float64(st.FleetSize)
		}
		score *= 0.25 + 0.75*(1-clamp01(util))
		// Thermal headroom: back off a facility running hot.
		score *= 0.2 + 0.8*clamp01(st.ThermalHeadroom)
		// Carbon: shift load toward the grid that is greenest right now.
		if cfg.CarbonAware && meanCarbon > 0 {
			f := 1 + carbonGain*(meanCarbon-st.CarbonIntensity)/meanCarbon
			if f < 0.05 {
				f = 0.05
			}
			score *= f
		}
		dst[i] = score
		sum += score
	}
	n := float64(len(stats))
	routable := 1 - minShare*n
	for i := range dst {
		if sum > 0 {
			dst[i] = minShare + routable*dst[i]/sum
		} else {
			dst[i] = 1 / n
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
