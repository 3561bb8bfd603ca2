package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
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
// It mirrors Server's concurrency discipline — the pacer advances the
// federation under the write lock, handlers copy a snapshot out under
// the read lock and render outside it — which is safe because site
// state only mutates inside Federation.AdvanceTo, even in parallel
// mode.
type GeoServer struct {
	mu   sync.RWMutex
	fed  *geo.Federation
	opts Options

	seq     atomic.Uint64
	scrapes atomic.Uint64

	// nextEmit is the next virtual-time SSE boundary. emitSnap (one
	// reused section per site), the scratch it is built with, and
	// emitJSON, its encoding, are reused by every emit. All four are
	// pacer-only.
	nextEmit    time.Duration
	emitSnap    GeoSnapshot
	emitScratch snapshotScratch
	emitJSON    []byte

	sse     *broadcaster
	scratch sync.Pool
	bufs    sync.Pool
}

// NewGeoServer validates the options and builds a server around the
// federation. Options.Carbon is ignored: each site carries its own
// grid model (geo.SiteConfig.Carbon) and the exposition reports
// site-local intensities. A zero Horizon defaults to the federation's
// own horizon so Run terminates instead of idling past it.
func NewGeoServer(fed *geo.Federation, opts Options) (*GeoServer, error) {
	if fed == nil {
		return nil, fmt.Errorf("serve: nil federation")
	}
	if opts.Horizon == 0 {
		opts.Horizon = fed.Config().Horizon
	}
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	s := &GeoServer{
		fed:  fed,
		opts: opts,
		sse:  newBroadcaster(),
	}
	s.scratch.New = func() any { return new(snapshotScratch) }
	s.bufs.New = func() any { return new(renderBuf) }
	s.nextEmit = fed.Now() + opts.EmitEvery
	return s, nil
}

// Options reports the effective options after defaulting.
func (s *GeoServer) Options() Options { return s.opts }

// AdvanceTo drives the federation to the target virtual time under the
// write lock. Slicing Federation.AdvanceTo is outcome-neutral (barriers
// fire at fixed epoch boundaries regardless of pacing), so a served
// federation stays bit-identical to a batch run over the same horizon.
func (s *GeoServer) AdvanceTo(target time.Duration) error {
	s.mu.Lock()
	err := s.fed.AdvanceTo(target)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.emitIfDue()
	return nil
}

// emitIfDue publishes one SSE snapshot when the virtual clock has
// crossed the next cadence boundary, and like Server.emitIfDue builds
// and encodes nothing with no stream subscribed. Pacer-goroutine only.
func (s *GeoServer) emitIfDue() {
	s.mu.RLock()
	now := s.fed.Now()
	due := now >= s.nextEmit
	live := due && s.sse.subscribed()
	if live {
		s.snapshotLocked(&s.emitSnap, &s.emitScratch)
	}
	s.mu.RUnlock()
	if !due {
		return
	}
	for s.nextEmit <= now {
		s.nextEmit += s.opts.EmitEvery
	}
	seq := s.seq.Add(1)
	if !live {
		return
	}
	s.emitSnap.Seq = seq
	var err error
	s.emitJSON, err = appendGeoSnapshotJSON(s.emitJSON[:0], &s.emitSnap)
	if err != nil {
		return // no JSON form (NaN or Inf): drop the event
	}
	s.sse.publish(sseFrame(seq, "snapshot", s.emitJSON))
}

// Run paces the federation until ctx is cancelled or the horizon is
// reached, exactly like Server.Run.
func (s *GeoServer) Run(ctx context.Context) error {
	tick := time.NewTicker(s.opts.Slice)
	defer tick.Stop()
	step := time.Duration(float64(s.opts.Slice) * s.opts.Speedup)
	if step <= 0 {
		step = 1
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		s.mu.RLock()
		target := s.fed.Now() + step
		s.mu.RUnlock()
		if target > s.opts.Horizon {
			target = s.opts.Horizon
		}
		if err := s.AdvanceTo(target); err != nil {
			return err
		}
		s.mu.RLock()
		done := s.fed.Now() >= s.opts.Horizon
		s.mu.RUnlock()
		if done {
			return nil
		}
	}
}

// Snapshot captures a consistent federation view under the read lock.
func (s *GeoServer) Snapshot() GeoSnapshot {
	var snap GeoSnapshot
	sc := s.scratch.Get().(*snapshotScratch)
	s.mu.RLock()
	s.snapshotLocked(&snap, sc)
	snap.Seq = s.seq.Load()
	s.mu.RUnlock()
	s.scratch.Put(sc)
	return snap
}

// currentFrame renders the current federated snapshot as one SSE frame
// of the given event type, or nil when it has no JSON form.
func (s *GeoServer) currentFrame(event string) []byte {
	snap := s.Snapshot()
	data, err := appendGeoSnapshotJSON(nil, &snap)
	if err != nil {
		return nil
	}
	return sseFrame(snap.Seq, event, data)
}

// snapshotLocked fills snap with the federated state, building every
// site with sc and reusing snap's per-site sections as buildSnapshot
// reuses a snapshot; callers hold s.mu and set Seq.
func (s *GeoServer) snapshotLocked(snap *GeoSnapshot, sc *snapshotScratch) {
	now := s.fed.Now()
	sites := s.fed.Sites()
	*snap = GeoSnapshot{
		SimTimeSeconds: now.Seconds(),
		Speedup:        s.opts.Speedup,
		Mode:           s.fed.Config().Mode.String(),
		Epochs:         s.fed.Epochs(),
		Sites:          resize(snap.Sites, len(sites)),
	}
	for i, site := range sites {
		src := Source{
			Engine:    site.Engine(),
			Fleet:     site.Fleet(),
			Manager:   site.Manager(),
			DC:        site.DC(),
			Admission: site.Admission(),
			Retry:     site.Retry(),
		}
		sec := &snap.Sites[i]
		sec.Site = site.Name()
		sec.TZOffsetSeconds = site.TZOffset().Seconds()
		sec.RouteWeight = site.Weight()
		buildSnapshot(&sec.Snapshot, src, s.opts.OutsideC, s.opts.OutsideRH, sc)
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

// Shutdown mirrors Server.Shutdown: one final SSE frame, then every
// stream drains and returns. Safe to call more than once.
func (s *GeoServer) Shutdown() {
	s.sse.shutdown(s.currentFrame("shutdown"))
}

// Handler returns the HTTP mux: /metrics (merged OpenMetrics with a
// site label), /api/v1/snapshot (JSON with per-site sections),
// /api/v1/stream (SSE), and /healthz.
func (s *GeoServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/api/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/api/v1/stream", s.handleStream)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *GeoServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	scrapes := s.scrapes.Add(1)
	snap := s.Snapshot()
	rb := s.bufs.Get().(*renderBuf)
	rb.body.Reset()
	writeGeoMetrics(&rb.body, &snap, scrapes, s.sse.dropped.Load())
	w.Header().Set("Content-Type", ContentType)
	_, _ = w.Write(rb.body.Bytes())
	s.bufs.Put(rb)
}

func (s *GeoServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	rb := s.bufs.Get().(*renderBuf)
	var err error
	rb.json, err = appendGeoSnapshotJSON(rb.json[:0], &snap)
	writeIndentedJSON(w, rb, err)
	s.bufs.Put(rb)
}

func (s *GeoServer) handleStream(w http.ResponseWriter, r *http.Request) {
	s.sse.stream(w, r, func() []byte { return s.currentFrame("snapshot") })
}
