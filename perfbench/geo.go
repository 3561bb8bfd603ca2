package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/stats"
)

// geoSize shapes the federation workload.
type geoSize struct {
	perSite int
	span    time.Duration
}

var (
	geoFull = geoSize{perSite: 10_000, span: 6 * time.Hour}
	geoToy  = geoSize{perSite: 100, span: time.Hour}
)

const (
	geoSites = 4
	geoEpoch = 5 * time.Minute // barrier cadence, one AdvanceTo call each
	geoTick  = time.Minute     // site manager decisions
)

// geoLoginsPerServer sizes the global login peak to the pooled fleet so
// sites run tight at their peaks (the geo experiments' ratio: 2800
// logins/s over about 200 servers), which is what lets a capacity dip
// turn into rejections, retries and breaker trips.
const geoLoginsPerServer = 14

// geoTraceSeed seeds the federation's global login trace, per-site
// engines and retry jitter.
const geoTraceSeed = 1

// geoConfig builds the federation for one seed: sites spread around the
// clock, admission plus a budget retry loop and breaker everywhere,
// weighted routing, sites on their own goroutines, and one site taking a
// capacity dip mid-run. The seed jitters the dip's start and depth; the
// federation's own demand-trace seed and the dipped site are fixed,
// because the coordinated managers' switching volume is chaotic in the
// trace (one trace seed in six switches servers 8x as often), and every
// benchmark seed should pose the same kind of storm.
func geoConfig(sz geoSize, seed int64, armed bool) geo.Config {
	rng := rand.New(rand.NewSource(seed))
	const dipSite = 1
	dip := fault.Event{
		Kind:     fault.CapacityDip,
		At:       sz.span/2 + time.Duration(rng.Intn(5))*geoTick,
		Duration: sz.span / 6,
		Frac:     0.5 + 0.02*rng.Float64(),
	}
	cfg := geo.Config{
		Seed:          geoTraceSeed,
		Epoch:         geoEpoch,
		Tick:          geoTick,
		Horizon:       sz.span,
		Mode:          geo.RouteWeighted,
		PeakLoginRate: geoLoginsPerServer * float64(geoSites*sz.perSite),
		Parallel:      true,
		Invariants:    armed,
	}
	for i := 0; i < geoSites; i++ {
		sc := geo.SiteConfig{
			Name:            fmt.Sprintf("site-%d", i),
			TZOffset:        time.Duration(i) * 24 * time.Hour / time.Duration(geoSites),
			PopulationShare: 1,
			FleetSize:       sz.perSite,
			Retry:           true,
		}
		if i == dipSite {
			sc.Faults = []fault.Event{dip}
		}
		cfg.Sites = append(cfg.Sites, sc)
	}
	return cfg
}

func geoRep(o options, seed int64, tr *tracer, root int) repResult {
	sz := geoFull
	if o.toy {
		sz = geoToy
	}
	return runGeo(sz, seed, tr, root)
}

// siteClock times one site's engine from outside the federation. A
// marker event 1ns after every barrier is the first event of each epoch's
// engine run and anchors the clock; an after-event hook stamps the end of
// every event, and an event during which the manager's decision count
// moved is the manager's tick. The hook runs on the site's goroutine and
// writes only this struct; the federation's barrier handshake orders
// those writes before the benchmark reads them between epochs.
type siteClock struct {
	tr          *tracer
	mgr         *core.Manager
	last        int64
	anchored    bool
	decisions   int64
	runStart    int64
	runEnd      int64
	mgrTicks    [][2]int64
	markerFires uint64
}

func newSiteClock(tr *tracer, e *sim.Engine, mgr *core.Manager, epoch time.Duration) *siteClock {
	c := &siteClock{tr: tr, mgr: mgr, decisions: mgr.Decisions()}
	e.Periodic(e.Now()+1, epoch, func(*sim.Engine) {
		c.markerFires++
		c.anchored = true
	})
	e.AfterEvent(func(*sim.Engine) {
		now := c.tr.now()
		if c.anchored {
			c.anchored = false
			c.last, c.runStart = now, now
			return
		}
		start := c.last
		c.last, c.runEnd = now, now
		if d := c.mgr.Decisions(); d != c.decisions {
			c.decisions = d
			c.mgrTicks = append(c.mgrTicks, [2]int64{start, now})
		}
	})
	return c
}

// flush records the epoch's site run and manager ticks under parent.
func (c *siteClock) flush(parent int) {
	if c.runEnd > c.runStart {
		run := c.tr.add("sim.run", parent, c.runStart, c.runEnd)
		for _, t := range c.mgrTicks {
			c.tr.add("core.manager", run, t[0], t[1])
		}
	}
	c.mgrTicks = c.mgrTicks[:0]
	c.runStart, c.runEnd = 0, 0
}

// runGeo is one rep of the federation workload. The timed part advances
// the federation one epoch per AdvanceTo call (outcome-neutral: barriers
// fall on exact epoch boundaries whatever the slicing), timing each
// epoch and counting each site's events in it.
func runGeo(sz geoSize, seed int64, tr *tracer, root int) repResult {
	var r repResult
	r.ops = 1
	setupSpan := tr.begin("setup", root)
	t0 := time.Now()
	f, err := geo.New(geoConfig(sz, seed, false))
	if err != nil {
		r.fail("build federation: %v", err)
		return r
	}
	defer f.Close()
	sites := f.Sites()
	var clocks []*siteClock
	if tr != nil {
		for _, s := range sites {
			clocks = append(clocks, newSiteClock(tr, s.Engine(), s.Manager(), geoEpoch))
		}
	}
	r.setup = time.Since(t0)
	r.workers = 1 // fleet-only sites run their shard loops inline
	tr.end(setupSpan)

	prev := make([]uint64, len(sites))
	var epochMS, skews []float64
	mark := markMem()
	runSpan := tr.begin("geo.run", root)
	t1 := time.Now()
	for f.Now() < sz.span {
		ep := tr.begin("geo.epoch", runSpan)
		te := time.Now()
		err = f.AdvanceTo(f.Now() + geoEpoch)
		epochMS = append(epochMS, float64(time.Since(te))/1e6)
		tr.end(ep)
		if err != nil {
			break
		}
		var sum, most float64
		for i, s := range sites {
			n := s.Engine().Processed()
			d := float64(n - prev[i])
			prev[i] = n
			sum += d
			most = max(most, d)
		}
		if sum > 0 {
			skews = append(skews, most/(sum/float64(len(sites))))
		}
		for _, c := range clocks {
			c.flush(ep)
		}
	}
	r.wall = time.Since(t1)
	tr.end(runSpan)
	r.mem = mark.since()
	r.srvHours = float64(geoSites*sz.perSite) * sz.span.Hours()

	check := tr.begin("check", root)
	defer tr.end(check)
	if err != nil {
		r.fail("advance: %v", err)
		return r
	}
	if want := int64(sz.span / geoEpoch); f.Epochs() != want {
		r.fail("federation ran %d epochs, want %d", f.Epochs(), want)
	}
	now := f.Now()
	var events, markers uint64
	var peak int
	var retryTicks, decisions, switches int64
	var fresh, retried float64
	for i, s := range sites {
		if err := s.Retry().CheckInvariants(now); err != nil {
			r.fail("site %s retry ledger: %v", s.Name(), err)
		}
		if err := s.Admission().CheckInvariants(now); err != nil {
			r.fail("site %s admission ledger: %v", s.Name(), err)
		}
		if err := s.Fleet().VerifyAggregates(); err != nil {
			r.fail("site %s fleet aggregates: %v", s.Name(), err)
		}
		events += s.Engine().Processed()
		p := s.Engine().PeakPending()
		if clocks != nil {
			markers += clocks[i].markerFires
			p--
		}
		peak = max(peak, p)
		retryTicks += s.Retry().Ticks()
		decisions += s.Manager().Decisions()
		ons, offs := s.Fleet().Switches()
		switches += int64(ons + offs)
		fresh += s.Retry().FreshUsers()
		retried += s.Retry().RetriedUsers()
	}
	events -= markers // net of the instrumentation
	res := f.Result()
	if !(res.GlobalEnergyKWh > 0) {
		r.fail("no energy accumulated")
	}
	var d digest
	d.addInt("epochs", res.Epochs)
	d.add("energy_kwh", res.GlobalEnergyKWh)
	d.add("peak_power_w", res.GlobalPeakPowerW)
	d.add("offered", res.OfferedUsers)
	d.add("rejected", res.RejectedUsers)
	d.add("goodput", res.GoodputUsers)
	d.add("grams", res.GramsCO2e)
	d.addInt("switches", switches)
	d.addInt("events", int64(events))
	var trips int64
	for _, s := range res.Sites {
		d.add(s.Name+".energy_kwh", s.EnergyKWh)
		d.add(s.Name+".goodput", s.GoodputUsers)
		d.addInt(s.Name+".breaker_trips", s.BreakerTrips)
		d.addInt(s.Name+".thermal_trips", int64(s.ThermalTrips))
		trips += s.BreakerTrips
	}
	r.digest = d.sum()

	goodputFrac, amp := 0.0, 1.0
	if fresh > 0 {
		goodputFrac = res.GoodputUsers / (fresh + retried)
		amp = (fresh + retried) / fresh
	}
	r.layers = map[string]float64{
		"sim.events":                   float64(events),
		"sim.events_per_s":             float64(events) / r.wall.Seconds(),
		"sim.peak_pending":             float64(peak),
		"core.decisions":               float64(decisions),
		"core.switches":                float64(switches),
		"runtime.alloc_objects":        float64(r.mem.allocObjects),
		"runtime.gc_cycles":            float64(r.mem.gcCycles),
		"runtime.gc_cpu_s":             r.mem.gcCPU,
		"workload.retry_ticks":         float64(retryTicks),
		"workload.goodput_frac":        goodputFrac,
		"workload.retry_amplification": amp,
		"workload.breaker_trips":       float64(trips),
		"workload.rejected_frac":       res.RejectedFrac,
		"geo.epochs":                   float64(res.Epochs),
		"geo.epoch_p50_ms":             quantile(epochMS, 0.5),
		"geo.epoch_p99_ms":             quantile(epochMS, 0.99),
		"geo.site_event_skew":          stats.Mean(skews),
	}
	return r
}

// geoArmedPerSite is the fleet size of the armed replay. The invariant
// checker walks every server after every event, so its cost grows with
// the square of the fleet; at 10k servers per site one armed span takes
// minutes.
const geoArmedPerSite = 1_000

// geoArmedCheck replays the workload's federation once per benchmark
// invocation with every site's invariant checker armed, at
// geoArmedPerSite servers per site, and reports any violation together
// with any divergence from the same replay unarmed (checking must not
// change the outcome).
func geoArmedCheck(o options, seed int64) []string {
	sz := geoFull
	if o.toy {
		sz = geoToy
	}
	sz.perSite = min(sz.perSite, geoArmedPerSite)
	var results [2]geo.Result
	for i, armed := range []bool{false, true} {
		f, err := geo.New(geoConfig(sz, seed, armed))
		if err != nil {
			return []string{fmt.Sprintf("build federation (armed=%v): %v", armed, err)}
		}
		err = f.Run()
		if err == nil && armed {
			err = f.InvariantErr()
		}
		results[i] = f.Result()
		f.Close()
		if err != nil {
			return []string{fmt.Sprintf("armed replay: %v", err)}
		}
	}
	if u, a := results[0], results[1]; u.GlobalEnergyKWh != a.GlobalEnergyKWh || u.GoodputUsers != a.GoodputUsers || u.Epochs != a.Epochs {
		return []string{fmt.Sprintf("armed replay diverged: energy %v vs %v, goodput %v vs %v", a.GlobalEnergyKWh, u.GlobalEnergyKWh, a.GoodputUsers, u.GoodputUsers)}
	}
	return nil
}
