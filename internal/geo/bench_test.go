package geo

import (
	"testing"
	"time"
)

// geoHorizon is the simulated span each benchmark iteration covers.
const geoHorizon = 2 * time.Hour

// benchGeoConfig builds a sites × perSite federation with the full
// request stack (admission everywhere, retry loops on odd sites) but no
// facility substrate, so the numbers isolate what federation itself
// costs: per-site engines, the epoch barrier, and the router.
func benchGeoConfig(sites, perSite int, parallel bool) Config {
	cfg := Config{
		Seed:     1,
		Epoch:    15 * time.Minute,
		Tick:     time.Minute,
		Horizon:  geoHorizon,
		Mode:     RouteWeighted,
		Parallel: parallel,
	}
	for i := 0; i < sites; i++ {
		cfg.Sites = append(cfg.Sites, SiteConfig{
			Name:            "s" + string(rune('a'+i)),
			TZOffset:        time.Duration(i) * 24 * time.Hour / time.Duration(sites),
			PopulationShare: 1,
			FleetSize:       perSite,
			Retry:           i%2 == 1,
		})
	}
	return cfg
}

// benchGeo reports simulated server-hours per wall second across the
// whole federation — the same throughput metric the benchdiff gate
// watches for the single-facility scale suite. Construction (trace
// generation, fleet boot wiring) runs off the clock so the number
// measures federated execution, which is what Parallel moves.
func benchGeo(b *testing.B, sites, perSite int, parallel bool) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := New(benchGeoConfig(sites, perSite, parallel))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := f.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if f.Result().GlobalEnergyKWh <= 0 {
			b.Fatal("no energy accumulated")
		}
		f.Close()
		b.StartTimer()
	}
	srvHours := float64(b.N) * float64(sites*perSite) * geoHorizon.Hours()
	b.ReportMetric(srvHours/b.Elapsed().Seconds(), "srv-h/sec")
}

// BenchmarkGeo4Sites1k and its serial pin are the CI-sized pair (run in
// short mode): same bits, a pool worker per site vs one thread, so the
// benchdiff baseline records the federation speedup on every run.
func BenchmarkGeo4Sites1k(b *testing.B) { benchGeo(b, 4, 1_000, true) }

// BenchmarkGeo4Sites1kSerial is the sites-on-one-thread pin of the tier
// above — the denominator of the parallel-speedup comparison.
func BenchmarkGeo4Sites1kSerial(b *testing.B) { benchGeo(b, 4, 1_000, false) }

// BenchmarkGeo2Sites10k is the smallest developer-scale tier.
func BenchmarkGeo2Sites10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k tier skipped in short mode")
	}
	benchGeo(b, 2, 10_000, true)
}

// BenchmarkGeo4Sites10k is the headline tier: four 10k-server regions
// federated behind the router.
func BenchmarkGeo4Sites10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k tier skipped in short mode")
	}
	benchGeo(b, 4, 10_000, true)
}

// BenchmarkGeo4Sites10kSerial pins the headline tier to serial site
// execution for the speedup comparison.
func BenchmarkGeo4Sites10kSerial(b *testing.B) {
	if testing.Short() {
		b.Skip("10k tier skipped in short mode")
	}
	benchGeo(b, 4, 10_000, false)
}

// BenchmarkGeo8Sites10k widens the federation to eight regions.
func BenchmarkGeo8Sites10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k tier skipped in short mode")
	}
	benchGeo(b, 8, 10_000, true)
}

// BenchmarkGeo4Sites100k is the upper operating point: four 100k-server
// regions — 400k servers and a multi-million-user demand trace.
func BenchmarkGeo4Sites100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k tier skipped in short mode")
	}
	benchGeo(b, 4, 100_000, true)
}
