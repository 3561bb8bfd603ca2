package geo

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Federation runs N sites in lockstep epochs behind the deterministic
// global router. Construct with New, drive with Run or AdvanceTo, and
// release the pools with Close.
type Federation struct {
	cfg    Config
	sites  []*Site
	global *trace.Series

	// pool advances the sites between barriers, one index range per
	// site: one worker per site when cfg.Parallel is set, nil (inline,
	// in site order) otherwise. runSite is its body, bound once in New;
	// it runs step on site i and writes the error into errs[i].
	pool    *par.Pool
	units   []par.Range
	runSite func(int, par.Range)
	step    advance
	errs    []error

	now         time.Duration
	nextBarrier time.Duration
	epochs      int64
	weights     []float64
	stats       []SiteStats

	// Roll-up accumulators, maintained at barriers in site order.
	peakPowerW        float64
	weightSum         []float64
	weightMin         []float64
	weightMax         []float64
	breakerOpenEpochs []int64
}

// New validates cfg, generates the global demand, and builds every
// site and the federation pool that advances them.
func New(cfg Config) (*Federation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	f := &Federation{cfg: cfg, nextBarrier: cfg.Epoch}

	// One global Messenger trace; each site's home population follows
	// it rotated by the site's time-zone offset and scaled by its
	// normalized population share. The pooled demand is the sum.
	tc := trace.DefaultMessengerConfig()
	if tc.Duration < cfg.Horizon {
		tc.Duration = cfg.Horizon
	}
	tc.PeakLoginRate = cfg.PeakLoginRate
	base, err := trace.GenerateMessenger(tc, NewTraceRNG(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("geo: %w", err)
	}
	offsets := make([]time.Duration, len(cfg.Sites))
	shares := make([]float64, len(cfg.Sites))
	for i, sc := range cfg.Sites {
		offsets[i] = sc.TZOffset
		shares[i] = sc.PopulationShare
	}
	homes, err := trace.CarveSites(base.Logins, offsets, shares)
	if err != nil {
		return nil, fmt.Errorf("geo: %w", err)
	}
	f.global, err = trace.SumSeries(homes...)
	if err != nil {
		return nil, fmt.Errorf("geo: %w", err)
	}

	var shareSum float64
	for _, sh := range shares {
		shareSum += sh
	}
	f.sites = make([]*Site, len(cfg.Sites))
	f.weights = make([]float64, len(cfg.Sites))
	f.stats = make([]SiteStats, len(cfg.Sites))
	f.weightSum = make([]float64, len(cfg.Sites))
	f.weightMin = make([]float64, len(cfg.Sites))
	f.weightMax = make([]float64, len(cfg.Sites))
	f.breakerOpenEpochs = make([]int64, len(cfg.Sites))
	f.units = make([]par.Range, len(cfg.Sites))
	f.errs = make([]error, len(cfg.Sites))
	for i, sc := range cfg.Sites {
		staticW := sc.PopulationShare / shareSum
		s, err := newSite(f, i, sc, homes[i], staticW)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.sites[i] = s
		f.weights[i] = staticW
		f.weightMin[i] = staticW
		f.weightMax[i] = staticW
		f.units[i] = par.Range{Lo: i, Hi: i + 1}
	}
	f.runSite = f.advanceSite
	if cfg.Parallel {
		f.pool = par.New(len(f.sites))
	}
	return f, nil
}

// NewTraceRNG returns the RNG stream the federation draws its global
// trace from; cmd/tracegen uses the same fork so CLI-carved site traces
// match in-simulation demand for a seed.
func NewTraceRNG(seed int64) *sim.RNG {
	return sim.NewRNG(seed).Fork("geo/demand")
}

// Run advances the federation to its configured horizon.
func (f *Federation) Run() error { return f.AdvanceTo(f.cfg.Horizon) }

// AdvanceTo drives every site to target, pausing at each epoch barrier
// to exchange aggregates and routing weights. Calling it in arbitrary
// slices is outcome-neutral: barriers always happen at exact epoch
// boundaries and are the only points where cross-site state moves. A
// site's failed advance, or a carbon meter that rejects its site's
// barrier energy, is returned naming the site.
func (f *Federation) AdvanceTo(target time.Duration) error {
	if target > f.cfg.Horizon {
		target = f.cfg.Horizon
	}
	for f.now < target {
		a := advance{to: min(f.nextBarrier, target)}
		a.barrier = a.to == f.nextBarrier
		if err := f.advanceSites(a); err != nil {
			return err
		}
		f.now = a.to
		if a.barrier {
			err := f.barrier()
			f.nextBarrier += f.cfg.Epoch
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// advanceSites runs a on every site, on the federation pool, and joins
// the sites' errors in site order. Every site advances even when another
// fails, so the outcome, error included, is the same at every width: no
// two sites' events interleave on shared state (there is none).
func (f *Federation) advanceSites(a advance) error {
	f.step = a
	f.pool.RunRanges(f.units, f.runSite)
	err := errors.Join(f.errs...)
	clear(f.errs)
	return err
}

// advanceSite is advanceSites' body for the one-site range i.
func (f *Federation) advanceSite(i int, _ par.Range) {
	f.errs[i] = f.sites[i].runTo(f.step)
}

// barrier is the epoch-boundary exchange: read every site's snapshot,
// which its advance took at the boundary, in fixed site order; integrate
// emissions; update the roll-up; and publish the next epoch's weights.
// Runs single-threaded while every engine is paused at the boundary. It
// completes the exchange even when a carbon meter rejects its site's
// energy, and returns the first such error, naming the site.
func (f *Federation) barrier() error {
	var totalPowerW float64
	var err error
	for i, s := range f.sites {
		st := s.snap
		f.stats[i] = st
		totalPowerW += st.PowerW
		// Emissions integrate in site-local time so each site's diurnal
		// intensity curve lines up with its population's day.
		if e := s.meter.Observe(f.now+s.cfg.TZOffset, st.EnergyJ); e != nil && err == nil {
			err = fmt.Errorf("geo: site %s: %w", s.cfg.Name, e)
		}
		if st.Breaker != workload.BreakerClosed {
			f.breakerOpenEpochs[i]++
		}
	}
	if totalPowerW > f.peakPowerW {
		f.peakPowerW = totalPowerW
	}
	if f.cfg.Mode == RouteWeighted {
		computeWeights(&f.cfg, f.stats, f.weights)
		for i, s := range f.sites {
			s.weight = f.weights[i]
		}
	}
	for i, w := range f.weights {
		f.weightSum[i] += w
		if w < f.weightMin[i] {
			f.weightMin[i] = w
		}
		if w > f.weightMax[i] {
			f.weightMax[i] = w
		}
	}
	f.epochs++
	return err
}

// Close releases the federation pool and the site pools. Idempotent.
// It does not wait for the pools' workers to exit: a parked worker holds
// only its pool, never a site.
func (f *Federation) Close() {
	f.pool.Close()
	for _, s := range f.sites {
		if s != nil {
			s.pool.Close()
		}
	}
}

// Now reports the federation's virtual time.
func (f *Federation) Now() time.Duration { return f.now }

// Epochs reports how many barriers have completed.
func (f *Federation) Epochs() int64 { return f.epochs }

// Sites returns the federated sites in router order.
func (f *Federation) Sites() []*Site { return f.sites }

// Config returns the effective configuration after defaulting.
func (f *Federation) Config() Config { return f.cfg }

// Weights returns the current routing weights in site order.
func (f *Federation) Weights() []float64 {
	out := make([]float64, len(f.weights))
	copy(out, f.weights)
	return out
}

// InvariantErr reports the first physical-law violation observed by
// any site's checker, scanning sites in fixed order (nil when checking
// is off or every site is clean).
func (f *Federation) InvariantErr() error {
	for _, s := range f.sites {
		if s.checker == nil {
			continue
		}
		if err := s.checker.Err(); err != nil {
			return fmt.Errorf("site %s: %w", s.cfg.Name, err)
		}
	}
	return nil
}

// SiteResult is one site's roll-up over the run.
type SiteResult struct {
	Name              string
	EnergyKWh         float64
	MeanActive        float64
	OfferedUsers      float64
	RejectedUsers     float64
	GoodputUsers      float64
	RejectedFrac      float64
	BreakerTrips      int64
	BreakerOpenEpochs int64
	ThermalTrips      int
	GramsCO2e         float64
	MeanWeight        float64
	MinWeight         float64
	MaxWeight         float64
	FinalQ            float64
	FinalCapFactor    float64
}

// Result is the federation-wide roll-up over the run.
type Result struct {
	Mode             string
	Epochs           int64
	GlobalEnergyKWh  float64
	GlobalPeakPowerW float64
	OfferedUsers     float64
	RejectedUsers    float64
	GoodputUsers     float64
	RejectedFrac     float64
	GramsCO2e        float64
	Sites            []SiteResult
}

// Result rolls the run up: per-site outcomes (in site order) and the
// federation totals. Call after Run/AdvanceTo has reached the horizon.
func (f *Federation) Result() Result {
	res := Result{Mode: f.cfg.Mode.String(), Epochs: f.epochs, GlobalPeakPowerW: f.peakPowerW}
	nEpochs := f.epochs
	if nEpochs == 0 {
		nEpochs = 1
	}
	for i, s := range f.sites {
		rr := s.mgr.Result(f.now)
		sr := SiteResult{
			Name:              s.cfg.Name,
			EnergyKWh:         rr.EnergyKWh,
			MeanActive:        rr.MeanActive,
			OfferedUsers:      s.adm.OfferedUsers(),
			RejectedUsers:     s.adm.RejectedUsers(),
			BreakerOpenEpochs: f.breakerOpenEpochs[i],
			ThermalTrips:      s.mgr.Fleet().Trips(),
			GramsCO2e:         s.meter.Grams(),
			MeanWeight:        f.weightSum[i] / float64(nEpochs),
			MinWeight:         f.weightMin[i],
			MaxWeight:         f.weightMax[i],
			FinalQ:            s.adm.Q(),
			FinalCapFactor:    s.mgr.CapacityFactor(),
		}
		if f.epochs == 0 {
			sr.MeanWeight = f.weights[i]
		}
		if s.retry != nil {
			sr.GoodputUsers = s.retry.GoodputUsers()
			sr.BreakerTrips = s.retry.Trips()
		} else {
			sr.GoodputUsers = s.adm.AdmittedUsers()
		}
		if sr.OfferedUsers > 0 {
			sr.RejectedFrac = sr.RejectedUsers / sr.OfferedUsers
		}
		res.GlobalEnergyKWh += sr.EnergyKWh
		res.OfferedUsers += sr.OfferedUsers
		res.RejectedUsers += sr.RejectedUsers
		res.GoodputUsers += sr.GoodputUsers
		res.GramsCO2e += sr.GramsCO2e
		res.Sites = append(res.Sites, sr)
	}
	if res.OfferedUsers > 0 {
		res.RejectedFrac = res.RejectedUsers / res.OfferedUsers
	}
	return res
}
