package geo

import (
	"testing"
	"time"

	"repro/internal/fault"
)

// TestGeoSoak is the federation chaos soak CI runs under -race: four
// parallel sites with retry loops and intra-site worker pools, armed
// invariant checkers, and staggered regional capacity dips deep enough
// to trip breakers — the densest cross-goroutine traffic the federation
// can generate. Any data race between the federation pool's workers, the
// site pools' workers, and the barrier shows up here.
func TestGeoSoak(t *testing.T) {
	cfg := testConfig(42, 4)
	cfg.Parallel = true
	cfg.SiteWorkers = 2
	cfg.CarbonAware = true
	for i := range cfg.Sites {
		cfg.Sites[i].Retry = true
		cfg.Sites[i].Faults = []fault.Event{{
			Kind:     fault.CapacityDip,
			At:       time.Duration(i+1) * time.Hour,
			Duration: 90 * time.Minute,
			Frac:     0.75,
		}}
	}

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Drive in serve-style slices so barriers interleave with partial
	// advances while the pool workers stay parked in between.
	for at := 11 * time.Minute; f.Now() < cfg.Horizon; at += 47 * time.Minute {
		if err := f.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.AdvanceTo(cfg.Horizon); err != nil {
		t.Fatal(err)
	}
	if err := f.InvariantErr(); err != nil {
		t.Fatalf("physical-law violation under chaos: %v", err)
	}

	res := f.Result()
	if res.GoodputUsers <= 0 {
		t.Fatalf("soak produced no goodput: %+v", res)
	}
	var moved bool
	for _, sr := range res.Sites {
		if sr.MaxWeight-sr.MinWeight > 1e-9 {
			moved = true
		}
	}
	if !moved {
		t.Error("four staggered dips never moved a routing weight")
	}
}
