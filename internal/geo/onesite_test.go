package geo

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// handSite is one federated site's stack assembled by hand on a plain
// engine, outside any federation: the reference a one-site federation
// must reproduce.
type handSite struct {
	engine *sim.Engine
	mgr    *core.Manager
	adm    *workload.Admission
	retry  *workload.RetryLoop
}

// newHandSite builds what newSite builds for sc, in the same order, with
// the site's demand read straight off the Messenger trace the
// federation's seed draws.
func newHandSite(t *testing.T, cfg Config, sc SiteConfig) *handSite {
	t.Helper()
	tc := trace.DefaultMessengerConfig()
	if tc.Duration < cfg.Horizon {
		tc.Duration = cfg.Horizon
	}
	tc.PeakLoginRate = 1400
	base, err := trace.GenerateMessenger(tc, NewTraceRNG(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	h := &handSite{engine: sim.NewEngine(sim.NewRNG(cfg.Seed).Fork("geo/site/" + sc.Name).Int63())}
	pool := par.New(cfg.SiteWorkers)
	t.Cleanup(pool.Close)
	srvCfg := server.DefaultConfig()
	mcfg := core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      sc.FleetSize,
		Queue:          workload.DefaultQueueModel(),
		SLA:            100 * time.Millisecond,
		DecisionPeriod: cfg.Tick,
		Mode:           core.ModeCoordinated,
		InitialOn:      sc.FleetSize / 2,
		ClassDemand: func(now time.Duration) [workload.NumClasses]float64 {
			var fresh [workload.NumClasses]float64
			workload.DefaultClassMix().Split(workload.UsersPerTick(base.Logins.At(now), cfg.Tick), &fresh)
			return fresh
		},
		Pool: pool,
	}
	if h.adm, err = workload.NewAdmission(workload.DefaultAdmissionConfig()); err != nil {
		t.Fatal(err)
	}
	if sc.Retry {
		rcfg := workload.DefaultRetryConfig(workload.RetryBudget)
		rcfg.Breaker = workload.DefaultBreakerConfig()
		if h.retry, err = workload.NewRetryLoop(rcfg, h.adm, h.engine.RNG().Fork("geo/retry")); err != nil {
			t.Fatal(err)
		}
		mcfg.Retry = h.retry
	} else {
		mcfg.Admission = h.adm
	}
	if sc.Facility {
		dc, err := buildFacility(h.engine, sc.Name, srvCfg, sc.FleetSize, cfg.Epoch, pool)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dc.Attach(); err != nil {
			t.Fatal(err)
		}
		h.mgr, err = core.NewManagerForFleet(h.engine, mcfg, dc.Fleet(), nil)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		if h.mgr, err = core.NewManager(h.engine, mcfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	h.mgr.Start()
	return h
}

// TestOneSiteFederationIsItsSite is a metamorphic check of the
// federation: with one site, the routing weight is exactly 1 (the
// 0.02 floor plus the 0.98 routable share) and the pooled trace is the
// home trace, so the barrier's only effect on the site is a fleet Sync
// at each epoch boundary. The federation's site result must then equal,
// bit for bit, the same stack built by hand and advanced epoch by epoch
// on a plain engine, under every routing mode, with and without the
// facility substrate and the retry loop.
func TestOneSiteFederationIsItsSite(t *testing.T) {
	for _, mode := range []RouteMode{RouteHome, RouteStatic, RouteWeighted} {
		for _, facility := range []bool{false, true} {
			for _, retry := range []bool{false, true} {
				sc := SiteConfig{
					Name: "solo", PopulationShare: 1, FleetSize: 40,
					Facility: facility, Retry: retry,
				}
				cfg := Config{
					Seed:    11,
					Sites:   []SiteConfig{sc},
					Epoch:   30 * time.Minute,
					Tick:    time.Minute,
					Horizon: 6 * time.Hour,
					Mode:    mode,
				}
				name := mode.String()
				if facility {
					name += "/facility"
				}
				if retry {
					name += "/retry"
				}
				t.Run(name, func(t *testing.T) {
					f, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer f.Close()
					if err := f.Run(); err != nil {
						t.Fatal(err)
					}
					got := f.Result().Sites[0]

					h := newHandSite(t, cfg, sc)
					for at := cfg.Epoch; at <= cfg.Horizon; at += cfg.Epoch {
						if err := h.engine.Run(at); err != nil {
							t.Fatal(err)
						}
						h.mgr.Fleet().Sync(at)
					}
					if h.adm.OfferedUsers() == 0 {
						t.Fatal("the hand-built site saw no users")
					}
					rr := h.mgr.Result(cfg.Horizon)
					want := SiteResult{
						Name:           sc.Name,
						EnergyKWh:      rr.EnergyKWh,
						MeanActive:     rr.MeanActive,
						OfferedUsers:   h.adm.OfferedUsers(),
						RejectedUsers:  h.adm.RejectedUsers(),
						GoodputUsers:   h.adm.AdmittedUsers(),
						ThermalTrips:   h.mgr.Fleet().Trips(),
						FinalQ:         h.adm.Q(),
						FinalCapFactor: h.mgr.CapacityFactor(),
						MeanWeight:     1,
						MinWeight:      1,
						MaxWeight:      1,
					}
					if h.retry != nil {
						want.GoodputUsers = h.retry.GoodputUsers()
						want.BreakerTrips = h.retry.Trips()
					}
					want.RejectedFrac = want.RejectedUsers / want.OfferedUsers
					// Breaker-open epochs and emissions are barrier-side
					// tallies with no hand-built counterpart.
					want.BreakerOpenEpochs, want.GramsCO2e = got.BreakerOpenEpochs, got.GramsCO2e
					if got != want {
						t.Errorf("one-site federation differs from its hand-built site:\n  federation: %+v\n  by hand:    %+v", got, want)
					}
					if fr := f.Sites()[0].Manager().Result(cfg.Horizon); !reflect.DeepEqual(fr, rr) {
						t.Errorf("manager results differ:\n  federation: %+v\n  by hand:    %+v", fr, rr)
					}
				})
			}
		}
	}
}
