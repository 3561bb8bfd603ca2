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
// A Server owns the sim.Engine and is its only driver. The Run loop
// advances the engine in short virtual slices sized so that virtual time
// tracks wall time times Options.Speedup. Slicing Engine.Run is
// outcome-neutral: the event order, every model state, and the telemetry
// frames are byte-identical to one monolithic Run over the same horizon
// (the engine's heap ordering and RNG consumption depend only on events,
// never on where Run calls pause). The pacer never injects Sync or
// Rebase calls of its own — those would perturb float summation order
// and break replay equivalence with batch mode.
//
// # Concurrency
//
// The engine and every model hanging off it are single-threaded by
// design. Server serializes access with one RWMutex: the pacer advances
// under the write lock, HTTP handlers copy a Snapshot out under the read
// lock and render outside it. Zone inlet temperatures are read from the
// open row of the facility's columnar telemetry frame (one memcpy via
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
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/carbon"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
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
	// tracking to the exposition.
	Manager *core.Manager
	// DC, when set, adds the facility view: per-rack/zone power, zone
	// inlets from the telemetry frame, distribution losses, and PUE.
	DC *core.DataCenter
	// Degrader, when set, adds graceful-degradation state.
	Degrader *core.Degrader
	// Admission, when set, adds request-level user outcomes (admission,
	// rejection, degradation, per-class SLO misses). When nil, the
	// Manager's admission controller (if any) is used.
	Admission *workload.Admission
	// Retry, when set, adds closed-loop retry metrics (retried and
	// abandoned users, goodput, amplification, breaker state). When
	// nil, the Manager's retry loop (if any) is used; its wrapped
	// admission controller also backs the user-outcome view.
	Retry *workload.RetryLoop
}

// Options tunes the pacer and the exposition.
type Options struct {
	// Speedup is virtual seconds per wall second; must be positive.
	// 1 is real time; 3600 runs a day in 24 wall seconds.
	Speedup float64
	// Horizon stops the virtual clock there (0: run until ctx ends).
	Horizon time.Duration
	// Slice is the wall-clock pacing quantum (default 50ms). Virtual
	// time advances by Slice*Speedup per step.
	Slice time.Duration
	// EmitEvery is the SSE cadence in virtual time (default 15s). At
	// most one event is published per pacer step even when a step
	// crosses several cadence boundaries.
	EmitEvery time.Duration
	// Carbon is the grid-intensity model (zero value: DefaultModel).
	Carbon carbon.Model
	// OutsideC / OutsideRH are the outdoor conditions PUE is evaluated
	// at (defaults 18°C, 0.5 when both are zero).
	OutsideC  float64
	OutsideRH float64
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
	if err := o.Carbon.Validate(); err != nil {
		return err
	}
	if o.OutsideC == 0 && o.OutsideRH == 0 {
		o.OutsideC, o.OutsideRH = 18, 0.5
	}
	if o.OutsideRH <= 0 || o.OutsideRH > 1 {
		return fmt.Errorf("serve: outside RH %v out of (0,1]", o.OutsideRH)
	}
	return nil
}

// Server paces a simulation and serves its state over HTTP.
type Server struct {
	// mu serializes the engine (write side: AdvanceTo) against snapshot
	// readers (read side: HTTP handlers). Everything reachable from src
	// is guarded by it.
	mu   sync.RWMutex
	src  Source
	opts Options

	meter *carbon.Meter

	// seq numbers published SSE events; scrapes counts /metrics hits.
	// Atomic because handlers read them under the shared read lock
	// while the pacer bumps seq between steps.
	seq     atomic.Uint64
	scrapes atomic.Uint64

	// nextEmit is the next virtual-time SSE boundary. emitSnap, the
	// scratch it is built with, and emitJSON, its encoding, are reused
	// by every emit. All four are pacer-only.
	nextEmit    time.Duration
	emitSnap    Snapshot
	emitScratch snapshotScratch
	emitJSON    []byte

	sse *broadcaster
	// scratch pools *snapshotScratch for handler snapshot builds; bufs
	// pools *renderBuf for handler responses.
	scratch sync.Pool
	bufs    sync.Pool
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
	s := &Server{
		src:   src,
		opts:  opts,
		meter: meter,
		sse:   newBroadcaster(),
	}
	s.scratch.New = func() any { return new(snapshotScratch) }
	s.bufs.New = func() any { return new(renderBuf) }
	// Anchor the emissions meter and the SSE cadence at the current
	// clock so restarts from a warm engine do not back-fill.
	now := src.Engine.Now()
	if err := s.meter.Observe(now, src.Fleet.EnergyJ()); err != nil {
		return nil, err
	}
	s.nextEmit = now + opts.EmitEvery
	return s, nil
}

// Options reports the effective options after defaulting.
func (s *Server) Options() Options { return s.opts }

// AdvanceTo drives the engine to the target virtual time under the
// write lock and integrates emissions over the step. It is the only
// path that mutates simulation state; Run calls it on a wall-clock
// pace, and tests call it directly for deterministic stepping.
func (s *Server) AdvanceTo(target time.Duration) error {
	s.mu.Lock()
	if target < s.src.Engine.Now() {
		target = s.src.Engine.Now()
	}
	err := s.src.Engine.Run(target)
	if err == nil {
		err = s.meter.Observe(s.src.Engine.Now(), s.src.Fleet.EnergyJ())
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.emitIfDue()
	return nil
}

// emitIfDue publishes one SSE snapshot when the virtual clock has
// crossed the next cadence boundary. With no stream subscribed it only
// advances the cadence and the sequence number. Called only from the
// pacer goroutine (via AdvanceTo), so nextEmit and the emit buffers need
// no lock of their own.
func (s *Server) emitIfDue() {
	s.mu.RLock()
	now := s.src.Engine.Now()
	due := now >= s.nextEmit
	live := due && s.sse.subscribed()
	if live {
		s.snapshotLocked(&s.emitSnap, &s.emitScratch)
	}
	s.mu.RUnlock()
	if !due {
		return
	}
	// Skip boundaries the step overran: one event per pacer step keeps
	// the wall-clock publish rate bounded at high speedups.
	for s.nextEmit <= now {
		s.nextEmit += s.opts.EmitEvery
	}
	seq := s.seq.Add(1)
	if !live {
		return
	}
	s.emitSnap.Seq = seq
	var err error
	s.emitJSON, err = appendSnapshotJSON(s.emitJSON[:0], &s.emitSnap)
	if err != nil {
		// A NaN or Inf has no JSON form. Drop the event rather than
		// kill the pacer.
		return
	}
	s.sse.publish(sseFrame(seq, "snapshot", s.emitJSON))
}

// Run paces the engine until ctx is cancelled or the horizon is
// reached. Virtual time tracks wall time times Speedup; if a slice
// takes longer to simulate than its wall quantum, the loop simply runs
// behind (it never skips virtual time to catch up, which would change
// outcomes versus batch mode).
func (s *Server) Run(ctx context.Context) error {
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
		target := s.src.Engine.Now() + step
		s.mu.RUnlock()
		if s.opts.Horizon > 0 && target > s.opts.Horizon {
			target = s.opts.Horizon
		}
		if err := s.AdvanceTo(target); err != nil {
			return err
		}
		if s.opts.Horizon > 0 {
			s.mu.RLock()
			done := s.src.Engine.Now() >= s.opts.Horizon
			s.mu.RUnlock()
			if done {
				return nil
			}
		}
	}
}

// Snapshot captures a consistent view of the simulation under the read
// lock.
func (s *Server) Snapshot() Snapshot {
	var snap Snapshot
	sc := s.scratch.Get().(*snapshotScratch)
	s.mu.RLock()
	s.snapshotLocked(&snap, sc)
	snap.Seq = s.seq.Load()
	s.mu.RUnlock()
	s.scratch.Put(sc)
	return snap
}

// currentFrame renders the current snapshot as one SSE frame of the
// given event type, or nil when it has no JSON form.
func (s *Server) currentFrame(event string) []byte {
	snap := s.Snapshot()
	data, err := appendSnapshotJSON(nil, &snap)
	if err != nil {
		return nil
	}
	return sseFrame(snap.Seq, event, data)
}

// Shutdown ends the SSE side of the server gracefully: every connected
// stream receives one final "shutdown" event carrying the closing
// snapshot, then its channel is closed so the handler drains and
// returns. Scrape and snapshot endpoints keep answering until the HTTP
// server itself stops; call this before http.Server.Shutdown so stream
// handlers exit inside its drain window. Safe to call more than once.
func (s *Server) Shutdown() {
	s.sse.shutdown(s.currentFrame("shutdown"))
}

// Handler returns the HTTP mux: /metrics (OpenMetrics), /api/v1/snapshot
// (JSON), /api/v1/stream (SSE), and /healthz.
func (s *Server) Handler() http.Handler {
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
