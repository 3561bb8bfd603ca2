package serve

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/geo"
)

// GeoSiteSnapshot is one federated site's section of a GeoSnapshot: the
// full single-facility view plus the site's identity and routing state.
type GeoSiteSnapshot struct {
	// Site is the site name ("us-east", ...), also the exposition's
	// site label value.
	Site string `json:"site"`
	// TZOffsetSeconds is the site's diurnal phase shift.
	TZOffsetSeconds float64 `json:"tz_offset_seconds"`
	// RouteWeight is the share of global demand the router currently
	// directs at this site.
	RouteWeight float64 `json:"route_weight"`
	// Snapshot is the standard per-facility view (fleet, facility,
	// users, carbon), evaluated in site-local conditions.
	Snapshot
}

// GeoSnapshot is a consistent view of the whole federation: global
// roll-ups plus one full per-site section per site.
type GeoSnapshot struct {
	// Seq is the SSE event sequence number.
	Seq uint64 `json:"seq"`
	// SimTimeSeconds is the shared virtual clock (all sites advance in
	// lockstep epochs, so one clock describes every site).
	SimTimeSeconds float64 `json:"sim_time_seconds"`
	// Speedup echoes the configured virtual-per-wall ratio.
	Speedup float64 `json:"speedup"`
	// Mode names the global routing mode (home/static/weighted).
	Mode string `json:"mode"`
	// Epochs counts routing barriers crossed so far.
	Epochs int64 `json:"epochs"`
	// PowerW / EnergyJoules / GramsCO2e are federation-wide sums.
	PowerW       float64 `json:"power_w"`
	EnergyJoules float64 `json:"energy_joules"`
	GramsCO2e    float64 `json:"grams_co2e"`
	// Sites holds one section per site, in fixed site order.
	Sites []GeoSiteSnapshot `json:"sites"`
}

// GeoServer paces a geo.Federation and serves its merged state over
// HTTP: one OpenMetrics exposition with a site label on every per-site
// family, a JSON snapshot with per-site sections, and an SSE stream.
// Its pacing, snapshot and HTTP methods come from the pacer it shares
// with Server (its Snapshot returns a GeoSnapshot); it supplies the
// federation clock, the federation step, and the federated snapshot
// and exposition. The pacer's locking
// covers the federation because site state only mutates inside
// Federation.AdvanceTo, even in parallel mode.
type GeoServer struct {
	pacer[GeoSnapshot]
	fed *geo.Federation
}

// NewGeoServer validates the options and builds a server around the
// federation. Options.Carbon is ignored: each site carries its own
// grid model (geo.SiteConfig.Carbon) and the exposition reports
// site-local intensities. A zero Horizon defaults to the federation's
// own horizon, and a later one is rejected: the federation never
// advances past its horizon, so Run would never reach it.
func NewGeoServer(fed *geo.Federation, opts Options) (*GeoServer, error) {
	if fed == nil {
		return nil, fmt.Errorf("serve: nil federation")
	}
	if end := fed.Config().Horizon; opts.Horizon == 0 {
		opts.Horizon = end
	} else if opts.Horizon > end {
		return nil, fmt.Errorf("serve: horizon %v is past the federation's horizon %v", opts.Horizon, end)
	}
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	s := &GeoServer{fed: fed}
	s.pacer.init(s, opts)
	return s, nil
}

func (s *GeoServer) clock() time.Duration { return s.fed.Now() }

// step drives the federation to target. Slicing Federation.AdvanceTo is
// outcome-neutral (barriers fire at fixed epoch boundaries regardless
// of pacing), so a served federation stays bit-identical to a batch run
// over the same horizon.
func (s *GeoServer) step(target time.Duration) error { return s.fed.AdvanceTo(target) }

// build fills snap with the federated state, building every site with
// sc and reusing snap's per-site sections as buildSnapshot reuses a
// snapshot.
func (s *GeoServer) build(snap *GeoSnapshot, sc *snapshotScratch, seq uint64) {
	now := s.fed.Now()
	sites := s.fed.Sites()
	*snap = GeoSnapshot{
		Seq:            seq,
		SimTimeSeconds: now.Seconds(),
		Speedup:        s.opts.Speedup,
		Mode:           s.fed.Config().Mode.String(),
		Epochs:         s.fed.Epochs(),
		Sites:          resize(snap.Sites, len(sites)),
	}
	for i, site := range sites {
		src := Source{
			Engine:  site.Engine(),
			Fleet:   site.Fleet(),
			Manager: site.Manager(),
			DC:      site.DC(),
		}
		sec := &snap.Sites[i]
		sec.Site = site.Name()
		sec.TZOffsetSeconds = site.TZOffset().Seconds()
		sec.RouteWeight = site.Weight()
		buildSnapshot(&sec.Snapshot, src, sc)
		sec.Snapshot.Speedup = s.opts.Speedup
		// Carbon is evaluated in site-local time against the site's own
		// grid model; grams come from the barrier-integrated meter.
		local := now + site.TZOffset()
		model := site.CarbonModel()
		sec.Snapshot.Carbon = CarbonSnapshot{
			IntensityGPerKWh: model.IntensityAt(local),
			RateGPerHour:     model.RateGPerHour(local, sec.Snapshot.PowerW),
			GramsTotal:       site.Grams(),
		}
		snap.PowerW += sec.Snapshot.PowerW
		snap.EnergyJoules += sec.Snapshot.EnergyJoules
		snap.GramsCO2e += sec.Snapshot.Carbon.GramsTotal
	}
}

func (s *GeoServer) encode(dst []byte, snap *GeoSnapshot) ([]byte, error) {
	return appendGeoSnapshotJSON(dst, snap)
}

// expose renders the federation as one merged OpenMetrics exposition:
// a prelude of dcsim_geo_* roll-up families (federation size, barrier
// count, routing weights, global power/energy/grams), then every
// standard per-facility family with a site label on each sample.
// Families stay contiguous — sites are looped inside each family, never
// the other way around — so the output passes the same Lint the
// single-facility exposition does.
func (s *GeoServer) expose(buf *bytes.Buffer, snap *GeoSnapshot, scrapes, sseDropped uint64) {
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
