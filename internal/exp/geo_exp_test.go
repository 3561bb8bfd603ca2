package exp

import "testing"

// The geo-* claims of EXPERIMENTS.md as predicates with no tolerance,
// checked at the test seed.

// TestGeoDiurnalClaim: pooling offset peaks, the weighted router rejects
// less than home routing, globally and at its worst site, serves at least
// as many users, and spends peak power at off-peak siblings to do it.
func TestGeoDiurnalClaim(t *testing.T) {
	r := run(t, "geo-diurnal").(*GeoDiurnalResult)
	w, h := r.Weighted, r.Home
	if w.RejectedFrac >= h.RejectedFrac {
		t.Errorf("weighted rejected %v, home %v: want fewer", w.RejectedFrac, h.RejectedFrac)
	}
	if w.MaxSiteRejectedFrac >= h.MaxSiteRejectedFrac {
		t.Errorf("weighted worst site rejected %v, home %v: want fewer", w.MaxSiteRejectedFrac, h.MaxSiteRejectedFrac)
	}
	if w.GoodputUsers < h.GoodputUsers {
		t.Errorf("weighted goodput %v users, home %v: want at least as many", w.GoodputUsers, h.GoodputUsers)
	}
	if w.PeakPowerKW <= h.PeakPowerKW {
		t.Errorf("weighted peak %v kW, home %v kW: want higher", w.PeakPowerKW, h.PeakPowerKW)
	}
}

// TestGeoBrownoutClaim: the weighted router drains the dipped site's
// share, which cuts rejections globally and at the dipped site and saves
// users, while the dipped site's breaker trips as often as under static
// shares: the drain, not the breaker, saves the users.
func TestGeoBrownoutClaim(t *testing.T) {
	r := run(t, "geo-brownout").(*GeoBrownoutResult)
	if r.DippedWeighted.MinWeight >= r.DippedStatic.MinWeight {
		t.Errorf("dipped site min weight %v weighted, %v static: want drained",
			r.DippedWeighted.MinWeight, r.DippedStatic.MinWeight)
	}
	if r.DrainedShareFrac <= 0 {
		t.Errorf("drained share %v, want > 0", r.DrainedShareFrac)
	}
	if r.Weighted.RejectedFrac >= r.Static.RejectedFrac {
		t.Errorf("weighted rejected %v, static %v: want fewer", r.Weighted.RejectedFrac, r.Static.RejectedFrac)
	}
	if r.GoodputSavedUsers <= 0 {
		t.Errorf("goodput saved %v users, want > 0", r.GoodputSavedUsers)
	}
	if r.DippedWeighted.RejectedFrac >= r.DippedStatic.RejectedFrac {
		t.Errorf("dipped site rejected %v weighted, %v static: want fewer",
			r.DippedWeighted.RejectedFrac, r.DippedStatic.RejectedFrac)
	}
	if r.DippedWeighted.BreakerTrips != r.DippedStatic.BreakerTrips {
		t.Errorf("dipped site breaker trips %d weighted, %d static: want equal",
			r.DippedWeighted.BreakerTrips, r.DippedStatic.BreakerTrips)
	}
}

// TestGeoCarbonClaim: carbon-aware routing emits less than carbon-blind
// routing by shifting share to the greenest site, and gives up a smaller
// fraction of goodput than the fraction of emissions it saves.
func TestGeoCarbonClaim(t *testing.T) {
	r := run(t, "geo-carbon").(*GeoCarbonResult)
	if r.Aware.GramsCO2e >= r.Blind.GramsCO2e {
		t.Errorf("aware emitted %v g, blind %v g: want less", r.Aware.GramsCO2e, r.Blind.GramsCO2e)
	}
	if r.GreenestShareGain <= 0 {
		t.Errorf("greenest site's share gain %v, want > 0", r.GreenestShareGain)
	}
	if r.GoodputCostFrac >= r.GramsSavedFrac {
		t.Errorf("goodput cost %v not below emissions saved %v", r.GoodputCostFrac, r.GramsSavedFrac)
	}
}
