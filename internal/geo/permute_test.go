package geo

import (
	"math"
	"testing"
)

// TestSitePermutationPermutesResults is a metamorphic check of the
// federation: rotating the site list rotates the results. A site's seed
// derives from its name, so each site keeps its own randomness; only
// the router's float sums run in another order. Matched by name, every
// site's float outcomes and final routing weight agree within 1e-9
// relative, and its breaker, thermal-trip and fleet-switch counts are
// equal, at 3 and 4 sites and seeds 1–3.
func TestSitePermutationPermutesResults(t *testing.T) {
	const relTol = 1e-9
	for _, n := range []int{3, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := testConfig(seed, n)
			base, wBase, swBase := runPermuted(t, cfg)

			rot := cfg
			rot.Sites = append(append(rot.Sites[:0:0], cfg.Sites[1:]...), cfg.Sites[0])
			got, wGot, swGot := runPermuted(t, rot)

			for i, want := range base.Sites {
				j := (i + n - 1) % n // site i's place in the rotated list
				g := got.Sites[j]
				if g.Name != want.Name {
					t.Fatalf("sites=%d seed=%d: rotated slot %d holds %s, want %s", n, seed, j, g.Name, want.Name)
				}
				for _, c := range []struct {
					what      string
					got, want float64
				}{
					{"energy kWh", g.EnergyKWh, want.EnergyKWh},
					{"offered users", g.OfferedUsers, want.OfferedUsers},
					{"rejected users", g.RejectedUsers, want.RejectedUsers},
					{"goodput users", g.GoodputUsers, want.GoodputUsers},
					{"mean weight", g.MeanWeight, want.MeanWeight},
					{"min weight", g.MinWeight, want.MinWeight},
					{"max weight", g.MaxWeight, want.MaxWeight},
					{"final weight", wGot[j], wBase[i]},
				} {
					if math.Abs(c.got-c.want) > relTol*math.Max(math.Abs(c.got), math.Abs(c.want)) {
						t.Errorf("sites=%d seed=%d site %s: %s %v rotated, %v in order", n, seed, want.Name, c.what, c.got, c.want)
					}
				}
				if g.BreakerTrips != want.BreakerTrips || g.BreakerOpenEpochs != want.BreakerOpenEpochs ||
					g.ThermalTrips != want.ThermalTrips || swGot[j] != swBase[i] {
					t.Errorf("sites=%d seed=%d site %s: breaker trips/open epochs/thermal trips/switches %d/%d/%d/%v rotated, %d/%d/%d/%v in order",
						n, seed, want.Name, g.BreakerTrips, g.BreakerOpenEpochs, g.ThermalTrips, swGot[j],
						want.BreakerTrips, want.BreakerOpenEpochs, want.ThermalTrips, swBase[i])
				}
			}
		}
	}
}

// runPermuted runs cfg to its horizon and returns its result, its final
// routing weights and each site's fleet switches, all in site order.
func runPermuted(t *testing.T, cfg Config) (Result, []float64, [][2]int) {
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
	switches := make([][2]int, len(f.Sites()))
	for i, s := range f.Sites() {
		switches[i][0], switches[i][1] = s.Fleet().Switches()
	}
	return f.Result(), f.Weights(), switches
}
