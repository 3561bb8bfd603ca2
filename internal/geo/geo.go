// Package geo federates N complete facilities — each with its own event
// kernel, fleet, admission/retry stack, and optionally a full
// power-and-cooling substrate — behind a deterministic global request
// router. It is the inter-site half of the parallelism story:
// internal/par shards the per-tick loops inside one facility, and the
// same executor advances whole facilities here, one index range per
// site.
//
// # Epoch-synchronized execution
//
// Sites share no simulation state, so within one routing epoch each
// site's engine advances completely independently — inline in site
// order, or on a federation pool with one worker per site. At every
// epoch boundary all sites meet at a barrier: the federation reads each
// site's O(1) aggregates (power, active servers, fair-share Q, breaker
// state, thermal headroom, carbon intensity) in fixed site order, feeds
// them to the router, and publishes the next epoch's routing weights
// before any engine moves again.
//
// # Determinism contract
//
// Results are bit-identical whether sites run inline or on N cores:
// a site's epoch is a pure function of (its seed, its weight history),
// weights are a pure function of the barrier aggregates computed in
// fixed site order, and the barrier itself runs single-threaded. The
// pool only moves wall-clock work; it never reorders events, floats, or
// RNG draws, and every site advances even when another fails, so errors
// match too. TestFederationBitIdentity pins this.
//
// # Demand model
//
// One global Messenger-style login trace is generated from the seed;
// each site's home population follows that shape rotated by the site's
// time-zone offset (trace.TimeShift) and scaled by its population
// share. The pooled global demand is the pointwise sum of the home
// series — flatter than any single site's diurnal, which is what the
// router exploits. RouteHome serves every population at its home site
// (the no-federation control); RouteStatic carves the pooled demand by
// fixed population shares; RouteWeighted carves it by the barrier
// scoring rule, draining load away from saturated, dipped, hot, or
// carbon-heavy sites.
package geo

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/carbon"
	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/workload"
)

// RouteMode selects how the global router carves demand across sites.
type RouteMode int

const (
	// RouteHome serves each site's home population locally: no pooling,
	// no routing — the control every federated mode is measured against.
	RouteHome RouteMode = iota + 1
	// RouteStatic pools the global demand and carves it by fixed
	// population shares, ignoring site state.
	RouteStatic
	// RouteWeighted pools the global demand and carves it by the
	// deterministic barrier scoring rule over per-site aggregates.
	RouteWeighted
)

// String renders the mode.
func (m RouteMode) String() string {
	switch m {
	case RouteHome:
		return "home"
	case RouteStatic:
		return "static"
	case RouteWeighted:
		return "weighted"
	default:
		return fmt.Sprintf("route(%d)", int(m))
	}
}

// SiteConfig describes one federated facility.
type SiteConfig struct {
	// Name identifies the site in reports, metrics labels, and errors.
	Name string
	// TZOffset shifts the site's local diurnal east of the reference
	// clock (its population peaks TZOffset earlier in global time).
	// Must be non-negative.
	TZOffset time.Duration
	// PopulationShare is the site's share of the global user population
	// (normalized across sites; must be positive).
	PopulationShare float64
	// FleetSize is the site's server count; half of it starts on.
	FleetSize int
	// Retry closes the request loop at this site: rejected users come
	// back through a budget-policy retry loop with a circuit breaker.
	Retry bool
	// RetryConfig overrides the default budget retry configuration
	// (ignored unless Retry is set).
	RetryConfig *workload.RetryConfig
	// Facility builds the full power-tree + cooling substrate under the
	// fleet (20 racks, 4 zones, telemetry frames). Requires FleetSize
	// divisible by 20. Without it the site runs the fleet-only stack.
	Facility bool
	// Carbon is the site's grid-intensity model (zero → DefaultModel).
	// The curve is evaluated in site-local time: IntensityAt(t+TZOffset).
	Carbon carbon.Model
	// Faults is a regional fault program armed on this site's engine
	// (e.g. a CapacityDip for a utility-feed brownout). The site's
	// manager subscribes, so dips scale its admission capacity.
	Faults []fault.Event
}

// Config describes one federation run.
type Config struct {
	// Seed derives every stochastic input: the global trace, per-site
	// engine seeds, and retry jitter.
	Seed int64
	// Sites are the federated facilities, in fixed router order.
	Sites []SiteConfig
	// Epoch is the barrier cadence: sites run independently for one
	// epoch, then exchange aggregates and routing weights.
	Epoch time.Duration
	// Tick is each site manager's decision period (≤ Epoch).
	Tick time.Duration
	// Horizon is the simulated span of Run.
	Horizon time.Duration
	// Mode selects the routing rule (default RouteWeighted).
	Mode RouteMode
	// CarbonAware adds the carbon-intensity term to the weighted
	// scoring rule (RouteWeighted only).
	CarbonAware bool
	// PeakLoginRate normalizes the global trace's peak (users/second;
	// default 1400 — the paper's Messenger figure). The trace has the
	// default Messenger shape, stretched to cover Horizon, and its
	// arrivals split by workload.DefaultClassMix.
	PeakLoginRate float64
	// Parallel advances the sites between barriers on a federation pool
	// (internal/par) with one worker per site; without it they advance
	// inline in site order. Results are bit-identical either way; only
	// wall time moves.
	Parallel bool
	// SiteWorkers is each site's intra-site shard-loop width (see
	// internal/par): 0 or 1 means inline, and at most par.MaxShards,
	// since no shard list has more shards. The two axes compose:
	// sites × workers.
	SiteWorkers int
	// Invariants attaches a per-site physical-law checker to every
	// engine (one checker per site, so checking stays race-free under
	// Parallel).
	Invariants bool
}

// withDefaults fills derived defaults; call after Validate.
func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = RouteWeighted
	}
	if c.PeakLoginRate == 0 {
		c.PeakLoginRate = 1400
	}
	for i := range c.Sites {
		if c.Sites[i].Carbon == (carbon.Model{}) {
			c.Sites[i].Carbon = carbon.DefaultModel()
		}
	}
	return c
}

// facilityRacks is the rack count of the built-in facility topology.
const facilityRacks = 20

// Validate checks the configuration, reporting every violation in one
// aggregated error (the cmd/dcsim flag-validation style).
func (c Config) Validate() error {
	var problems []string
	add := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if len(c.Sites) == 0 {
		add("at least one site is required")
	}
	if n := len(c.Sites); minShare*float64(n) >= 1 {
		add("%d sites leave no weight to route above the %v floor per site (at most %d)",
			n, minShare, int(math.Ceil(1/minShare))-1)
	}
	names := make(map[string]bool, len(c.Sites))
	for i, s := range c.Sites {
		if s.Name == "" {
			add("site %d needs a name", i)
		} else if names[s.Name] {
			add("duplicate site name %q", s.Name)
		}
		names[s.Name] = true
		if s.TZOffset < 0 {
			add("site %d (%s): negative tz offset %v", i, s.Name, s.TZOffset)
		}
		if !(s.PopulationShare > 0) || math.IsNaN(s.PopulationShare) {
			add("site %d (%s): population share %v must be positive", i, s.Name, s.PopulationShare)
		}
		if s.FleetSize <= 0 {
			add("site %d (%s): fleet size %d must be positive", i, s.Name, s.FleetSize)
		}
		if s.Facility && s.FleetSize%facilityRacks != 0 {
			add("site %d (%s): facility fleet %d must be divisible by %d racks", i, s.Name, s.FleetSize, facilityRacks)
		}
		if s.Carbon != (carbon.Model{}) {
			if err := s.Carbon.Validate(); err != nil {
				add("site %d (%s): %v", i, s.Name, err)
			}
		}
	}
	if c.Epoch <= 0 {
		add("epoch %v must be positive", c.Epoch)
	}
	if c.Tick <= 0 {
		add("tick %v must be positive", c.Tick)
	}
	if c.Epoch > 0 && c.Tick > 0 && c.Tick > c.Epoch {
		add("tick %v exceeds epoch %v", c.Tick, c.Epoch)
	}
	if c.Horizon <= 0 {
		add("horizon %v must be positive", c.Horizon)
	}
	switch c.Mode {
	case 0, RouteHome, RouteStatic, RouteWeighted:
	default:
		add("unknown route mode %d", int(c.Mode))
	}
	if c.PeakLoginRate < 0 {
		add("peak login rate %v must be non-negative", c.PeakLoginRate)
	}
	if c.SiteWorkers < 0 || c.SiteWorkers > par.MaxShards {
		add("site workers %d must be in [0, %d]", c.SiteWorkers, par.MaxShards)
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("geo: invalid federation config:\n  - %s", strings.Join(problems, "\n  - "))
}
