package geo

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testConfig builds an n-site federation exercising the full stack:
// staggered time zones, uneven population shares, a facility substrate
// on site 0, and retry loops on every odd site.
func testConfig(seed int64, n int) Config {
	cfg := Config{
		Seed:       seed,
		Epoch:      30 * time.Minute,
		Tick:       time.Minute,
		Horizon:    6 * time.Hour,
		Mode:       RouteWeighted,
		Invariants: true,
	}
	for i := 0; i < n; i++ {
		sc := SiteConfig{
			Name:            "s" + string(rune('a'+i)),
			TZOffset:        time.Duration(i) * 24 * time.Hour / time.Duration(n),
			PopulationShare: float64(2 + i%3),
			FleetSize:       24,
			Retry:           i%2 == 1,
		}
		if i == 0 {
			sc.Facility = true
			sc.FleetSize = 40
		}
		cfg.Sites = append(cfg.Sites, sc)
	}
	return cfg
}

func runFederation(t *testing.T, cfg Config) (Result, []float64) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if err := f.InvariantErr(); err != nil {
		t.Fatal(err)
	}
	return f.Result(), f.Weights()
}

// TestFederationBitIdentity pins the determinism contract: inline and
// pooled execution (one worker per site) produce bit-identical results
// — exact float equality on every rolled-up field and every routing
// weight — across site counts and seeds.
func TestFederationBitIdentity(t *testing.T) {
	for _, n := range []int{2, 4} {
		for _, seed := range []int64{1, 7} {
			cfg := testConfig(seed, n)
			serial, wSerial := runFederation(t, cfg)

			par := cfg
			par.Parallel = true
			parallel, wPar := runFederation(t, par)

			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("sites=%d seed=%d: serial and parallel results diverge:\n  serial:   %+v\n  parallel: %+v", n, seed, serial, parallel)
			}
			if !reflect.DeepEqual(wSerial, wPar) {
				t.Errorf("sites=%d seed=%d: final weights diverge: %v vs %v", n, seed, wSerial, wPar)
			}
		}
	}
}

// TestBarrierReportsMeterError feeds one site's carbon meter an
// observation at the horizon, so the meter's clock runs ahead of the
// federation and the next barrier's observation moves it backwards.
// AdvanceTo must return that error, naming the site, in both execution
// modes, after completing the barrier: the epoch counts and the other
// sites' meters accrue.
func TestBarrierReportsMeterError(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		cfg := testConfig(1, 3)
		cfg.Parallel = parallel
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		bad := f.Sites()[1]
		if err := bad.meter.Observe(cfg.Horizon+bad.TZOffset(), 0); err != nil {
			t.Fatal(err)
		}
		err = f.AdvanceTo(cfg.Epoch)
		if err == nil || !strings.Contains(err.Error(), "site "+bad.Name()+":") || !strings.Contains(err.Error(), "backwards") {
			t.Fatalf("parallel=%v: AdvanceTo returned %v, want the meter error of site %s", parallel, err, bad.Name())
		}
		if f.Epochs() != 1 || f.Sites()[0].Grams() <= 0 || f.Sites()[2].Grams() <= 0 {
			t.Fatalf("parallel=%v: %d epochs, grams %v and %v; want the barrier completed",
				parallel, f.Epochs(), f.Sites()[0].Grams(), f.Sites()[2].Grams())
		}
	}
}

// TestSiteErrorAdvancesEverySite makes the first site's advance fail: an
// event stops its engine mid-epoch. At both widths AdvanceTo must return
// the same error, naming that site, and every other site must still
// reach the target.
func TestSiteErrorAdvancesEverySite(t *testing.T) {
	var msgs []string
	for _, parallel := range []bool{false, true} {
		cfg := testConfig(1, 3)
		cfg.Parallel = parallel
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		bad := f.Sites()[0]
		bad.Engine().At(cfg.Epoch/2, func(e *sim.Engine) { e.Stop() })
		err = f.AdvanceTo(cfg.Epoch)
		if !errors.Is(err, sim.ErrStopped) || !strings.Contains(err.Error(), "site "+bad.Name()+":") {
			t.Fatalf("parallel=%v: AdvanceTo returned %v, want site %s's stop", parallel, err, bad.Name())
		}
		msgs = append(msgs, err.Error())
		for _, s := range f.Sites()[1:] {
			if now := s.Engine().Now(); now != cfg.Epoch {
				t.Errorf("parallel=%v: site %s stopped at %v, want %v", parallel, s.Name(), now, cfg.Epoch)
			}
		}
	}
	if msgs[0] != msgs[1] {
		t.Errorf("inline error %q, pooled error %q", msgs[0], msgs[1])
	}
}

// TestFederationSliceNeutral checks that driving AdvanceTo in arbitrary
// slices (the serve pacer's access pattern) is outcome-neutral: only
// epoch barriers exchange state, so slicing cannot move any event.
func TestFederationSliceNeutral(t *testing.T) {
	cfg := testConfig(3, 3)
	whole, wWhole := runFederation(t, cfg)

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for at := 7 * time.Minute; f.Now() < cfg.Horizon; at += 23 * time.Minute {
		if err := f.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
	}
	if f.Now() != cfg.Horizon {
		t.Fatalf("sliced run stopped at %v", f.Now())
	}
	if got, want := f.Result(), whole; !reflect.DeepEqual(got, want) {
		t.Errorf("sliced run diverges from whole run:\n  sliced: %+v\n  whole:  %+v", got, want)
	}
	if !reflect.DeepEqual(f.Weights(), wWhole) {
		t.Errorf("sliced weights %v != whole %v", f.Weights(), wWhole)
	}
}

// TestFederationRunsWork sanity-checks that a federation actually moves
// demand and energy: epochs advance, users are offered at every site,
// and routing weights stay a valid distribution above the floor.
func TestFederationRunsWork(t *testing.T) {
	cfg := testConfig(5, 4)
	res, weights := runFederation(t, cfg)
	if res.Epochs != int64(cfg.Horizon/cfg.Epoch) {
		t.Fatalf("epochs = %d, want %d", res.Epochs, cfg.Horizon/cfg.Epoch)
	}
	if res.GlobalEnergyKWh <= 0 || res.GlobalPeakPowerW <= 0 {
		t.Fatalf("no energy flowed: %+v", res)
	}
	if res.OfferedUsers <= 0 || res.GoodputUsers <= 0 {
		t.Fatalf("no users flowed: %+v", res)
	}
	var sum float64
	for i, w := range weights {
		if w < minShare-1e-12 {
			t.Errorf("site %d weight %v below minShare floor", i, w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
	for _, sr := range res.Sites {
		if sr.OfferedUsers <= 0 {
			t.Errorf("site %s saw no demand: %+v", sr.Name, sr)
		}
	}
}

// TestCloseJoinsSiteGoroutines holds Close to releasing a parallel
// federation: once it returns, no pool worker holds a site, so the first
// collection after it frees the federation. A worker that still held its
// site would keep the whole federation live across that collection, and
// a process that builds federations back to back would carry one
// federation's heap into the next one's build.
func TestCloseJoinsSiteGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for round := 0; round < 20; round++ {
		base := liveHeap()
		built := buildAndClose(t, benchGeoConfig(4, 500, true))
		left := liveHeap()
		if built <= base {
			t.Fatalf("round %d: live heap %d B with the federation built, %d B before", round, built, base)
		}
		if grown, size := int64(left)-int64(base), built-base; grown > int64(size/4) {
			t.Fatalf("round %d: live heap grew %d B across a closed %d B federation, want it freed", round, grown, size)
		}
	}
}

// TestFailedNewStopsSitePools: when a site fails to build, New closes
// every pool it started, the failing site's own included, so no worker
// outlives the error.
func TestFailedNewStopsSitePools(t *testing.T) {
	cfg := testConfig(1, 3)
	cfg.SiteWorkers = 4
	bad := workload.DefaultRetryConfig(workload.RetryBudget)
	bad.MaxAttempts = 0
	cfg.Sites[2].Retry = true
	cfg.Sites[2].RetryConfig = &bad
	before := runtime.NumGoroutine()
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an invalid retry config")
	}
	// Close does not wait for a pool's workers to exit.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after a failed New, %d before", n, before)
	}
}

// buildAndClose builds cfg's federation, runs it one epoch, and closes
// it. It reports the live heap with the federation still open.
func buildAndClose(t *testing.T, cfg Config) uint64 {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AdvanceTo(cfg.Epoch); err != nil {
		f.Close()
		t.Fatal(err)
	}
	built := liveHeap()
	f.Close()
	return built
}

// liveHeap collects and reports the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFederationBrownoutDrains checks the routing story end to end: a
// CapacityDip at one site makes the weighted router drain its share
// toward the healthy siblings, while the static control keeps shoveling
// the full share at the dipped site and rejects more globally.
func TestFederationBrownoutDrains(t *testing.T) {
	base := testConfig(11, 3)
	base.Sites[1].Faults = []fault.Event{{
		Kind:     fault.CapacityDip,
		At:       time.Hour,
		Duration: 4 * time.Hour,
		Frac:     0.7,
	}}

	weighted := base
	weighted.Mode = RouteWeighted
	wres, _ := runFederation(t, weighted)

	static := base
	static.Mode = RouteStatic
	sres, _ := runFederation(t, static)

	dipped := wres.Sites[1]
	if dipped.MinWeight >= dipped.MaxWeight {
		t.Fatalf("dipped site weight never moved: %+v", dipped)
	}
	staticShare := sres.Sites[1].MeanWeight
	if dipped.MinWeight >= staticShare {
		t.Errorf("weighted router never drained the dipped site below its static share %v: min weight %v", staticShare, dipped.MinWeight)
	}
	if wres.RejectedFrac >= sres.RejectedFrac {
		t.Errorf("weighted routing rejected %v of users, static control %v — routing should absorb the dip", wres.RejectedFrac, sres.RejectedFrac)
	}
}

// TestFederationHomeIgnoresWeights checks the control mode: RouteHome
// never reroutes, so weights stay at the static population shares.
func TestFederationHomeIgnoresWeights(t *testing.T) {
	cfg := testConfig(2, 3)
	cfg.Mode = RouteHome
	_, weights := runFederation(t, cfg)
	want := []float64{2.0 / 9, 3.0 / 9, 4.0 / 9}
	for i := range want {
		if math.Abs(weights[i]-want[i]) > 1e-12 {
			t.Fatalf("home-mode weights moved: %v, want %v", weights, want)
		}
	}
}

func TestConfigValidateAggregates(t *testing.T) {
	cfg := Config{
		Seed: 1,
		Sites: []SiteConfig{
			{Name: "", PopulationShare: -1, FleetSize: 0},
			{Name: "dup", PopulationShare: 1, FleetSize: 30, Facility: true},
			{Name: "dup", PopulationShare: 1, FleetSize: 10, TZOffset: -time.Hour},
		},
		Epoch:       -time.Minute,
		Tick:        0,
		Horizon:     0,
		Mode:        RouteMode(99),
		SiteWorkers: 65,
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	msg := err.Error()
	for _, want := range []string{
		"needs a name",
		"population share",
		"fleet size 0",
		"duplicate site name",
		"divisible by 20 racks",
		"negative tz offset",
		"epoch -1m0s",
		"tick 0s",
		"horizon 0s",
		"unknown route mode 99",
		"site workers 65 must be in [0, 64]",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregated error missing %q:\n%s", want, msg)
		}
	}
	if got := strings.Count(msg, "\n  - "); got < 11 {
		t.Errorf("expected >= 11 aggregated problems, got %d:\n%s", got, msg)
	}
}

// TestConfigValidateSiteCount: the minShare floor of 0.02 per site leaves
// weight to route for at most 49 sites.
func TestConfigValidateSiteCount(t *testing.T) {
	for _, tc := range []struct {
		sites int
		ok    bool
	}{{1, true}, {49, true}, {50, false}} {
		t.Run(fmt.Sprintf("sites=%d", tc.sites), func(t *testing.T) {
			err := testConfig(1, tc.sites).Validate()
			want := fmt.Sprintf("%d sites leave no weight to route", tc.sites)
			switch {
			case tc.ok && err != nil:
				t.Fatalf("rejected: %v", err)
			case !tc.ok && err == nil:
				t.Fatal("accepted")
			case !tc.ok && !strings.Contains(err.Error(), want):
				t.Fatalf("error %q does not contain %q", err, want)
			}
		})
	}
}

func healthyStats(n int) []SiteStats {
	stats := make([]SiteStats, n)
	for i := range stats {
		stats[i] = SiteStats{
			FleetSize:       100,
			Active:          50,
			Q:               1,
			CapFactor:       1,
			ThermalHeadroom: 1,
			CarbonIntensity: 400,
		}
	}
	return stats
}

func TestComputeWeightsEqualSites(t *testing.T) {
	cfg := Config{}
	stats := healthyStats(4)
	dst := make([]float64, 4)
	computeWeights(&cfg, stats, dst)
	for i, w := range dst {
		if math.Abs(w-0.25) > 1e-12 {
			t.Fatalf("equal sites got unequal weight %d: %v", i, dst)
		}
	}
}

func TestComputeWeightsDrainsPressure(t *testing.T) {
	cfg := Config{}
	for _, tc := range []struct {
		name string
		hurt func(*SiteStats)
	}{
		{"capacity dip", func(s *SiteStats) { s.CapFactor = 0.2 }},
		{"low fair share", func(s *SiteStats) { s.Q = 0.1 }},
		{"open breaker", func(s *SiteStats) { s.Breaker = workload.BreakerOpen }},
		{"hot facility", func(s *SiteStats) { s.ThermalHeadroom = 0.05 }},
		{"saturated", func(s *SiteStats) { s.Active = 100 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats := healthyStats(3)
			tc.hurt(&stats[1])
			dst := make([]float64, 3)
			computeWeights(&cfg, stats, dst)
			if !(dst[1] < dst[0] && dst[1] < dst[2]) {
				t.Errorf("hurt site not drained: %v", dst)
			}
			if dst[1] < minShare-1e-15 {
				t.Errorf("weight %v fell through the minShare floor", dst[1])
			}
			var sum float64
			for _, w := range dst {
				sum += w
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("weights sum to %v", sum)
			}
		})
	}
}

func TestComputeWeightsCarbonAware(t *testing.T) {
	cfg := Config{CarbonAware: true}
	stats := healthyStats(2)
	stats[0].CarbonIntensity = 200
	stats[1].CarbonIntensity = 600
	dst := make([]float64, 2)
	computeWeights(&cfg, stats, dst)
	if !(dst[0] > dst[1]) {
		t.Fatalf("carbon-aware router did not favor the greener site: %v", dst)
	}
	// Without the carbon term the same sites are symmetric.
	cfg.CarbonAware = false
	computeWeights(&cfg, stats, dst)
	if math.Abs(dst[0]-dst[1]) > 1e-12 {
		t.Fatalf("carbon term leaked into carbon-blind scoring: %v", dst)
	}
}
