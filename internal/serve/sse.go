package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// broadcaster fans published SSE frames out to subscribers. Each
// subscriber has a buffered channel; a subscriber that cannot keep up
// has frames dropped rather than stalling the pacer — the event id
// (snapshot sequence number) makes gaps visible to the client, and the
// dropped counter makes them visible on /metrics. The pacer encodes each
// frame once and every subscriber receives the same bytes, in publish
// order.
type broadcaster struct {
	mu     sync.Mutex
	subs   map[chan []byte]struct{}
	closed bool
	// dropped counts frames not delivered because a subscriber's
	// buffer was full, one per subscriber missed.
	dropped atomic.Uint64
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: make(map[chan []byte]struct{})}
}

func (b *broadcaster) subscribe() chan []byte {
	// 16 frames: a client may fall that far behind (a slow network
	// write, a GC pause) before it starts losing frames.
	ch := make(chan []byte, 16)
	b.mu.Lock()
	if b.closed {
		close(ch) // late subscriber during shutdown: stream ends at once
	} else {
		b.subs[ch] = struct{}{}
	}
	b.mu.Unlock()
	return ch
}

func (b *broadcaster) unsubscribe(ch chan []byte) {
	b.mu.Lock()
	delete(b.subs, ch)
	b.mu.Unlock()
}

// subscribed reports whether any stream would receive a publish. The
// pacer builds and encodes nothing for an emit when none would.
func (b *broadcaster) subscribed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.closed && len(b.subs) > 0
}

// shutdown delivers one final frame to every subscriber (best-effort,
// never blocking) and closes their channels so streaming handlers
// drain and return. Publish and subscribe become no-ops afterwards.
func (b *broadcaster) shutdown(final []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.subs {
		if final != nil {
			b.offer(ch, final) // a slow subscriber still sees the close
		}
		close(ch)
		delete(b.subs, ch)
	}
}

// publish offers one frame to every subscriber without blocking. The
// subscribers share frame, so the caller must not modify it afterwards.
func (b *broadcaster) publish(frame []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for ch := range b.subs {
		b.offer(ch, frame)
	}
}

// offer sends frame to ch unless its buffer is full (a slow
// subscriber), in which case the frame is dropped and counted; the
// pacer never blocks on a client. Callers hold b.mu.
func (b *broadcaster) offer(ch chan []byte, frame []byte) {
	select {
	case ch <- frame:
	default:
		b.dropped.Add(1)
	}
}

// stream serves one SSE subscriber: it subscribes, writes first() — the
// current snapshot as a frame, rendered after subscribing so that no
// published frame falls between the two — then relays published frames
// until the client goes away or the server shuts down.
func (b *broadcaster) stream(w http.ResponseWriter, r *http.Request, first func() []byte) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	ch := b.subscribe()
	defer b.unsubscribe(ch)

	if frame := first(); frame != nil {
		if _, err := w.Write(frame); err != nil {
			return
		}
	}
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-ch:
			if !ok {
				return // server shutdown: final frame already delivered
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// sseFrame renders one SSE frame, "id: N\nevent: E\ndata: <json>\n\n",
// into a new slice of exactly its size. Frames are not recycled: a
// subscriber may hold one in its channel indefinitely.
func sseFrame(id uint64, event string, data []byte) []byte {
	var head [64]byte
	h := strconv.AppendUint(append(head[:0], "id: "...), id, 10)
	h = append(h, "\nevent: "...)
	h = append(h, event...)
	h = append(h, "\ndata: "...)
	frame := make([]byte, 0, len(h)+len(data)+2)
	frame = append(frame, h...)
	frame = append(frame, data...)
	return append(frame, '\n', '\n')
}

// renderBuf is a pooled pair of response buffers: body holds a rendered
// response and json the compact snapshot encoding /api/v1/snapshot
// indents into body.
type renderBuf struct {
	body bytes.Buffer
	json []byte
}

// writeIndentedJSON serves rb.json, a compact snapshot encoding (err
// from encoding it), pretty-printed: json.Indent with two spaces plus a
// trailing newline, byte for byte what json.Encoder writes with
// SetIndent("", "  ").
func writeIndentedJSON(w http.ResponseWriter, rb *renderBuf, err error) {
	rb.body.Reset()
	if err == nil {
		err = json.Indent(&rb.body, rb.json, "", "  ")
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rb.body.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(rb.body.Bytes())
}
