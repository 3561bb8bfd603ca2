package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/geo"
	"repro/internal/serve"
	"repro/internal/workload"
)

// geoConfig maps the command line onto a federation: -sites complete
// facilities with evenly spread time zones and equal population shares,
// each running the same per-site stack the single-site path would
// (admission always, the retry loop when -retry asks, the full facility
// substrate when -facility is set). Demand comes from the federation's
// shared global trace, so -min-load/-max-load do not apply here.
func (o options) geoConfig() geo.Config {
	policy, retryOn, _ := parseRetry(o.retryStr)
	cfg := geo.Config{
		Seed:        o.seed,
		Epoch:       30 * time.Minute,
		Tick:        time.Minute,
		Horizon:     time.Duration(o.days) * 24 * time.Hour,
		Mode:        geo.RouteWeighted,
		Parallel:    true,
		SiteWorkers: o.workers,
	}
	for i := 0; i < o.sites; i++ {
		sc := geo.SiteConfig{
			Name:            fmt.Sprintf("site-%d", i),
			TZOffset:        time.Duration(i) * 24 * time.Hour / time.Duration(o.sites),
			PopulationShare: 1,
			FleetSize:       o.fleet,
			Facility:        o.facility,
			Carbon:          o.carbonModel(),
			Retry:           retryOn,
		}
		if retryOn {
			rcfg := workload.DefaultRetryConfig(policy)
			rcfg.Breaker = workload.DefaultBreakerConfig()
			sc.RetryConfig = &rcfg
		}
		cfg.Sites = append(cfg.Sites, sc)
	}
	return cfg
}

// runGeo executes the federated path of the command: batch-run the
// federation and print the global and per-site summaries, or serve it
// live when -serve is set.
func runGeo(o options, stdout io.Writer) error {
	fed, err := geo.New(o.geoConfig())
	if err != nil {
		return err
	}
	defer fed.Close()

	if o.serveMode {
		srv, err := serve.NewGeoServer(fed, serve.Options{Speedup: o.speedup})
		if err != nil {
			return err
		}
		return serveLive(srv, o.listen, fmt.Sprintf("sites=%d fleet=%d/site", o.sites, o.fleet), stdout, func() (float64, string) {
			snap := srv.Snapshot()
			return snap.SimTimeSeconds, fmt.Sprintf("%d epochs, %.2f kWh, %.0f gCO2e",
				snap.Epochs, snap.EnergyJoules/3.6e6, snap.GramsCO2e)
		})
	}

	if err := fed.Run(); err != nil {
		return err
	}
	res := fed.Result()
	fmt.Fprintf(stdout, "mode=%s sites=%d fleet=%d/site days=%d seed=%d\n",
		res.Mode, len(res.Sites), o.fleet, o.days, o.seed)
	fmt.Fprintf(stdout, "IT energy:        %.2f kWh (peak %.1f kW)\n",
		res.GlobalEnergyKWh, res.GlobalPeakPowerW/1e3)
	fmt.Fprintf(stdout, "routing epochs:   %d\n", res.Epochs)
	fmt.Fprintf(stdout, "users offered:    %.0f\n", res.OfferedUsers)
	fmt.Fprintf(stdout, "users rejected:   %.0f (%.2f%%)\n", res.RejectedUsers, res.RejectedFrac*100)
	fmt.Fprintf(stdout, "users goodput:    %.0f\n", res.GoodputUsers)
	fmt.Fprintf(stdout, "carbon:           %.0f gCO2e\n", res.GramsCO2e)
	for _, s := range res.Sites {
		fmt.Fprintf(stdout, "%-10s %9.1f kWh  mean %5.1f active  rejected %6.2f%%  weight %.3f  trips %d\n",
			s.Name, s.EnergyKWh, s.MeanActive, s.RejectedFrac*100, s.MeanWeight, s.ThermalTrips)
	}
	return nil
}
