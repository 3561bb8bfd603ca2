// Package serve runs the simulation as a long-lived process and exposes
// it over HTTP: an OpenMetrics exposition at /metrics, a JSON snapshot
// API, and a Server-Sent Events stream of periodic snapshots.
//
// The paper's elastic power-management loops are continuous: operators
// watch fleet power, inlet temperatures, PUE, and carbon intensity as
// the facility tracks demand. Batch experiments (internal/exp) replay
// those dynamics and summarize; this package keeps the same engine alive
// on a paced virtual clock so the dynamics can be observed while they
// happen — with any OpenMetrics scraper, a curl of the snapshot API, or
// an EventSource in a browser.
//
// # Pacing and determinism
//
// A Server owns the sim.Engine, a GeoServer the geo.Federation, and each
// is its only driver. The Run loop advances it in short virtual slices
// sized so that virtual time tracks wall time times Options.Speedup.
// Slicing Engine.Run is outcome-neutral: the event order, every model
// state, and the telemetry frames are byte-identical to one monolithic
// Run over the same horizon (the engine's heap ordering and RNG
// consumption depend only on events, never on where Run calls pause).
// The pacer never injects Sync or Rebase calls of its own — those would
// perturb float summation order and break replay equivalence with batch
// mode.
//
// # Concurrency
//
// The engine and every model hanging off it are single-threaded by
// design. Server and GeoServer run on one pacer, which serializes
// access with one RWMutex: it advances the simulation under the write
// lock, and HTTP handlers copy a snapshot out under the read lock and
// render outside it. A federation may step its site engines on their
// own goroutines, but only inside Federation.AdvanceTo, which returns
// once every site has reached the target, so the write lock covers
// them too. Zone inlet temperatures are read from the open row of the
// facility's columnar telemetry frame (one memcpy via
// FrameWriter.LatestInto) and fleet/rack/zone power from the fleet's
// O(1) maintained aggregates, so a scrape costs microseconds and never
// re-aggregates per-server state. Each snapshot evaluates the power
// tree once, into scratch buffers, and reads both the distribution
// view and PUE from that one evaluation. Handlers build snapshots
// concurrently, so each takes its scratch from a pool; the pacer keeps
// its own.
//
// SSE frames are encoded once, by the pacer: it rebuilds one snapshot
// it owns, encodes it into a buffer it owns with the package's
// append-style JSON encoder (byte-identical to encoding/json, which the
// tests use as its oracle), and hands every subscriber the same
// exact-size copy. With no stream subscribed, an emit builds and
// encodes nothing.
package serve

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/carbon"
	"repro/internal/core"
	"repro/internal/sim"
)

// Source bundles the live simulation objects a Server exposes. Engine
// and Fleet are required; the rest widen the exposition when present.
type Source struct {
	// Engine is the virtual clock and event kernel. The Server becomes
	// its sole driver; nothing else may call Run once serving starts.
	Engine *sim.Engine
	// Fleet is the server pool the power metrics come from.
	Fleet *core.Fleet
	// Manager, when set, adds policy mode, decision counts, and SLA
	// tracking to the exposition, plus request-level user outcomes when
	// it runs admission control (Manager.Admission) and closed-loop
	// retry metrics when it runs a retry loop (Manager.Retry).
	Manager *core.Manager
	// DC, when set, adds the facility view: per-rack/zone power, zone
	// inlets from the telemetry frame, distribution losses, and PUE.
	DC *core.DataCenter
}

// Options tunes the pacer and the exposition.
type Options struct {
	// Speedup is virtual seconds per wall second; must be positive.
	// 1 is real time; 3600 runs a day in 24 wall seconds.
	Speedup float64
	// Horizon stops the virtual clock there (0: run until ctx ends). A
	// GeoServer defaults it to the federation's horizon and rejects a
	// later one.
	Horizon time.Duration
	// Slice is the wall-clock pacing quantum (default 50ms). Virtual
	// time advances by Slice*Speedup per step.
	Slice time.Duration
	// EmitEvery is the SSE cadence in virtual time (default 15s). At
	// most one event is published per pacer step even when a step
	// crosses several cadence boundaries.
	EmitEvery time.Duration
	// Carbon is the grid-intensity model (zero value: DefaultModel). A
	// GeoServer ignores it: each site carries its own.
	Carbon carbon.Model
}

func (o *Options) withDefaults() error {
	if o.Speedup <= 0 {
		return fmt.Errorf("serve: speedup %v must be positive", o.Speedup)
	}
	if o.Horizon < 0 {
		return fmt.Errorf("serve: negative horizon %v", o.Horizon)
	}
	if o.Slice == 0 {
		o.Slice = 50 * time.Millisecond
	}
	if o.Slice < 0 {
		return fmt.Errorf("serve: negative slice %v", o.Slice)
	}
	if o.EmitEvery == 0 {
		o.EmitEvery = 15 * time.Second
	}
	if o.EmitEvery < 0 {
		return fmt.Errorf("serve: negative emit period %v", o.EmitEvery)
	}
	if o.Carbon == (carbon.Model{}) {
		o.Carbon = carbon.DefaultModel()
	}
	return o.Carbon.Validate()
}

// Server paces a simulation and serves its state over HTTP. Its pacing,
// snapshot and HTTP methods come from the pacer it shares with
// GeoServer (its Snapshot returns a Snapshot); it supplies the engine
// clock, the engine step, and the single-facility snapshot.
type Server struct {
	pacer[Snapshot]
	// src and meter are guarded by the pacer's lock.
	src   Source
	meter *carbon.Meter
}

// NewServer validates the wiring and builds a server around the
// simulation. The engine may already have virtual time on the clock
// (e.g. a warm-up run); serving continues from there.
func NewServer(src Source, opts Options) (*Server, error) {
	if src.Engine == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	if src.Fleet == nil {
		return nil, fmt.Errorf("serve: nil fleet")
	}
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	meter, err := carbon.NewMeter(opts.Carbon)
	if err != nil {
		return nil, err
	}
	// Anchor the emissions meter at the current clock so restarts from
	// a warm engine do not back-fill.
	if err := meter.Observe(src.Engine.Now(), src.Fleet.EnergyJ()); err != nil {
		return nil, err
	}
	s := &Server{src: src, meter: meter}
	s.pacer.init(s, opts)
	return s, nil
}

func (s *Server) clock() time.Duration { return s.src.Engine.Now() }

// step runs the engine to target and integrates emissions over the
// step.
func (s *Server) step(target time.Duration) error {
	e := s.src.Engine
	if err := e.Run(max(target, e.Now())); err != nil {
		return err
	}
	return s.meter.Observe(e.Now(), s.src.Fleet.EnergyJ())
}

// build fills snap with the facility's state, the pacer's speedup, and
// the emissions view from the server's carbon model and meter.
func (s *Server) build(snap *Snapshot, sc *snapshotScratch, seq uint64) {
	now := s.src.Engine.Now()
	buildSnapshot(snap, s.src, sc)
	snap.Seq = seq
	snap.Speedup = s.opts.Speedup
	snap.Carbon = CarbonSnapshot{
		IntensityGPerKWh: s.opts.Carbon.IntensityAt(now),
		RateGPerHour:     s.opts.Carbon.RateGPerHour(now, snap.PowerW),
		GramsTotal:       s.meter.Grams(),
	}
}

func (s *Server) encode(dst []byte, snap *Snapshot) ([]byte, error) {
	return appendSnapshotJSON(dst, snap)
}

func (s *Server) expose(buf *bytes.Buffer, snap *Snapshot, scrapes, sseDropped uint64) {
	writeMetrics(buf, *snap, scrapes, sseDropped)
}
