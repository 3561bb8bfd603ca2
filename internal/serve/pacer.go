package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// paced is what a pacer drives and exposes: one facility (Server) or a
// federation (GeoServer), with S its snapshot type. The pacer holds its
// write lock around step and its read lock around clock and build;
// encode and expose only read the snapshot they are given.
type paced[S any] interface {
	// clock reads the virtual clock.
	clock() time.Duration
	// step advances the simulation to target. It is the only call that
	// mutates simulation state.
	step(target time.Duration) error
	// build fills snap with the current state, numbered seq. It reuses
	// what snap already holds, so a snapshot kept across builds is
	// rebuilt without allocating.
	build(snap *S, sc *snapshotScratch, seq uint64)
	// encode appends snap's compact JSON encoding to dst. It fails, as
	// json.Marshal does, when any float is NaN or infinite.
	encode(dst []byte, snap *S) ([]byte, error)
	// expose renders snap as one OpenMetrics exposition. scrapes and
	// sseDropped are the pacer's own counters, which live outside the
	// snapshot.
	expose(buf *bytes.Buffer, snap *S, scrapes, sseDropped uint64)
}

// pacer is the one serving path under Server and GeoServer: the lock,
// the wall-clock pacing loop, the SSE cadence and the HTTP endpoints.
// Both servers embed it, so its exported methods are theirs.
type pacer[S any] struct {
	// mu serializes the simulation (write side: AdvanceTo) against
	// snapshot readers (read side: HTTP handlers). Everything reachable
	// from sim is guarded by it.
	mu   sync.RWMutex
	sim  paced[S]
	opts Options

	// seq numbers published SSE events; scrapes counts /metrics hits.
	// Atomic because handlers read them under the shared read lock
	// while the pacer bumps seq.
	seq     atomic.Uint64
	scrapes atomic.Uint64

	// nextEmit is the next virtual-time SSE boundary. emitSnap, the
	// scratch it is built with, and emitJSON, its encoding, are reused
	// by every emit. All four are pacer-only.
	nextEmit    time.Duration
	emitSnap    S
	emitScratch snapshotScratch
	emitJSON    []byte

	sse *broadcaster
	// scratch pools *snapshotScratch for handler snapshot builds; bufs
	// pools *renderBuf for handler responses.
	scratch sync.Pool
	bufs    sync.Pool
}

// init wires the pacer to sim with validated options. The SSE cadence
// is anchored at sim's current clock, so a server built on a warm
// engine does not back-fill events.
func (p *pacer[S]) init(sim paced[S], opts Options) {
	p.sim = sim
	p.opts = opts
	p.sse = newBroadcaster()
	p.scratch.New = func() any { return new(snapshotScratch) }
	p.bufs.New = func() any { return new(renderBuf) }
	p.nextEmit = sim.clock() + opts.EmitEvery
}

// Options reports the effective options after defaulting.
func (p *pacer[S]) Options() Options { return p.opts }

// now reads the virtual clock under the read lock.
func (p *pacer[S]) now() time.Duration {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sim.clock()
}

// AdvanceTo drives the simulation to the target virtual time under the
// write lock (a target behind the clock is a no-op), then publishes an
// SSE event if a cadence boundary was crossed. It is the only path that
// mutates simulation state; Run calls it on a wall-clock pace, and
// tests call it directly for deterministic stepping.
func (p *pacer[S]) AdvanceTo(target time.Duration) error {
	p.mu.Lock()
	err := p.sim.step(target)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	p.emitIfDue()
	return nil
}

// emitIfDue publishes one SSE snapshot when the virtual clock has
// crossed the next cadence boundary. With no stream subscribed it only
// advances the cadence and the sequence number. Called only from the
// pacer goroutine (via AdvanceTo), so nextEmit and the emit buffers need
// no lock of their own.
func (p *pacer[S]) emitIfDue() {
	p.mu.RLock()
	now := p.sim.clock()
	if now < p.nextEmit {
		p.mu.RUnlock()
		return
	}
	seq := p.seq.Add(1)
	live := p.sse.subscribed()
	if live {
		p.sim.build(&p.emitSnap, &p.emitScratch, seq)
	}
	p.mu.RUnlock()
	// Skip boundaries the step overran: one event per pacer step keeps
	// the wall-clock publish rate bounded at high speedups.
	for p.nextEmit <= now {
		p.nextEmit += p.opts.EmitEvery
	}
	if !live {
		return
	}
	var err error
	p.emitJSON, err = p.sim.encode(p.emitJSON[:0], &p.emitSnap)
	if err != nil {
		// A NaN or Inf has no JSON form. Drop the event rather than
		// kill the pacer.
		return
	}
	p.sse.publish(sseFrame(seq, "snapshot", p.emitJSON))
}

// Run paces the simulation until ctx is cancelled or the horizon is
// reached. Virtual time tracks wall time times Speedup; if a slice
// takes longer to simulate than its wall quantum, the loop simply runs
// behind (it never skips virtual time to catch up, which would change
// outcomes versus batch mode).
func (p *pacer[S]) Run(ctx context.Context) error {
	tick := time.NewTicker(p.opts.Slice)
	defer tick.Stop()
	step := time.Duration(float64(p.opts.Slice) * p.opts.Speedup)
	if step <= 0 {
		step = 1
	}
	horizon := p.opts.Horizon
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		target := p.now() + step
		if horizon > 0 && target > horizon {
			target = horizon
		}
		if err := p.AdvanceTo(target); err != nil {
			return err
		}
		if horizon > 0 && p.now() >= horizon {
			return nil
		}
	}
}

// Snapshot captures a consistent view of the simulation under the read
// lock.
func (p *pacer[S]) Snapshot() S {
	var snap S
	p.snapshotInto(&snap)
	return snap
}

// snapshotInto builds snap under the read lock with pooled scratch and
// returns the sequence number it carries.
func (p *pacer[S]) snapshotInto(snap *S) uint64 {
	sc := p.scratch.Get().(*snapshotScratch)
	p.mu.RLock()
	seq := p.seq.Load()
	p.sim.build(snap, sc, seq)
	p.mu.RUnlock()
	p.scratch.Put(sc)
	return seq
}

// currentFrame renders the current snapshot as one SSE frame of the
// given event type, or nil when it has no JSON form.
func (p *pacer[S]) currentFrame(event string) []byte {
	var snap S
	seq := p.snapshotInto(&snap)
	data, err := p.sim.encode(nil, &snap)
	if err != nil {
		return nil
	}
	return sseFrame(seq, event, data)
}

// Shutdown ends the SSE side of the server gracefully: every connected
// stream receives one final "shutdown" event carrying the closing
// snapshot, then its channel is closed so the handler drains and
// returns. Scrape and snapshot endpoints keep answering until the HTTP
// server itself stops; call this before http.Server.Shutdown so stream
// handlers exit inside its drain window. Safe to call more than once.
func (p *pacer[S]) Shutdown() {
	p.sse.shutdown(p.currentFrame("shutdown"))
}

// Handler returns the HTTP mux: /metrics (OpenMetrics), /api/v1/snapshot
// (JSON), /api/v1/stream (SSE), and /healthz.
func (p *pacer[S]) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/api/v1/snapshot", p.handleSnapshot)
	mux.HandleFunc("/api/v1/stream", p.handleStream)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleStream serves /api/v1/stream: an SSE stream of snapshot events
// on the configured virtual-time cadence. The first event is the
// current snapshot so clients render immediately.
func (p *pacer[S]) handleStream(w http.ResponseWriter, r *http.Request) {
	p.sse.stream(w, r, func() []byte { return p.currentFrame("snapshot") })
}

// handleSnapshot serves /api/v1/snapshot as pretty-printed JSON.
func (p *pacer[S]) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var snap S
	p.snapshotInto(&snap)
	rb := p.bufs.Get().(*renderBuf)
	var err error
	rb.json, err = p.sim.encode(rb.json[:0], &snap)
	writeIndentedJSON(w, rb, err)
	p.bufs.Put(rb)
}

// handleMetrics serves /metrics in the OpenMetrics text format. The
// snapshot is taken under the read lock; rendering happens outside it
// into a pooled buffer.
func (p *pacer[S]) handleMetrics(w http.ResponseWriter, r *http.Request) {
	scrapes := p.scrapes.Add(1)
	var snap S
	p.snapshotInto(&snap)
	rb := p.bufs.Get().(*renderBuf)
	rb.body.Reset()
	p.sim.expose(&rb.body, &snap, scrapes, p.sse.dropped.Load())
	w.Header().Set("Content-Type", ContentType)
	_, _ = w.Write(rb.body.Bytes())
	p.bufs.Put(rb)
}
