package serve

import "bytes"

// writeGeoMetrics renders the federation as one merged OpenMetrics
// exposition: a prelude of dcsim_geo_* roll-up families (federation
// size, barrier count, routing weights, global power/energy/grams),
// then every standard per-facility family with a site label on each
// sample. Families stay contiguous — sites are looped inside each
// family, never the other way around — so the output passes the same
// Lint the single-facility exposition does.
func writeGeoMetrics(buf *bytes.Buffer, snap *GeoSnapshot, scrapes, sseDropped uint64) {
	snaps := make([]labeledSnapshot, 0, len(snap.Sites))
	for i := range snap.Sites {
		snaps = append(snaps, labeledSnapshot{
			labels: []string{"site", snap.Sites[i].Site},
			snap:   &snap.Sites[i].Snapshot,
		})
	}
	prelude := func(w *omWriter) {
		w.family("dcsim_geo_sites", "gauge", "", "Federated sites behind the global router.")
		w.sample("dcsim_geo_sites", float64(len(snap.Sites)))
		w.family("dcsim_geo_epochs", "counter", "", "Routing barriers crossed by the federation.")
		w.sample("dcsim_geo_epochs_total", float64(snap.Epochs))
		w.family("dcsim_geo_route_mode", "gauge", "", "Active global routing mode (1 on the active mode).")
		w.sample("dcsim_geo_route_mode", 1, "mode", snap.Mode)
		w.family("dcsim_geo_route_weight", "gauge", "", "Share of global demand routed to each site.")
		for i := range snap.Sites {
			w.sample("dcsim_geo_route_weight", snap.Sites[i].RouteWeight, "site", snap.Sites[i].Site)
		}
		w.family("dcsim_geo_tz_offset_seconds", "gauge", "seconds", "Diurnal phase shift of each site's local demand.")
		for i := range snap.Sites {
			w.sample("dcsim_geo_tz_offset_seconds", snap.Sites[i].TZOffsetSeconds, "site", snap.Sites[i].Site)
		}
		w.family("dcsim_geo_power_watts", "gauge", "watts", "Federation-wide instantaneous IT power draw.")
		w.sample("dcsim_geo_power_watts", snap.PowerW)
		w.family("dcsim_geo_energy_joules", "counter", "joules", "Federation-wide cumulative fleet energy.")
		w.sample("dcsim_geo_energy_joules_total", snap.EnergyJoules)
		w.family("dcsim_geo_carbon_grams", "counter", "grams", "Federation-wide cumulative emissions in gCO2e.")
		w.sample("dcsim_geo_carbon_grams_total", snap.GramsCO2e)
	}
	writeLabeledMetrics(buf, snaps, scrapes, sseDropped, prelude)
}
