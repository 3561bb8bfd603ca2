// Package sim provides the discrete-event simulation kernel on which every
// substrate in this library runs: a virtual clock, an allocation-free
// event queue with deterministic tie-breaking, periodic processes, and a
// seeded random source. The kernel is single-threaded by design so that
// every experiment is reproducible bit-for-bit from its seed.
//
// # Kernel design
//
// The event queue is an index-based 4-ary min-heap over a contiguous
// event arena. Scheduling never allocates per event in steady state: a
// slot is taken from a free list (or appended to the arena, amortized),
// the heap stores arena indices, and ordering is (time, sequence) so
// simultaneous events fire in scheduling order. Cancellation is lazy —
// a generation-counted Handle is invalidated in O(1) and the slot is
// reclaimed when it surfaces at the heap top — and periodic processes
// reuse their single slot across ticks instead of allocating one event
// per period. The Handle-based API (At, After, Periodic, Cancel) is the
// zero-allocation fast path; the closure-returning Schedule family wraps
// it for convenience at one small allocation per call.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrStopped is returned by Run when the engine was stopped explicitly
// before the horizon was reached.
var ErrStopped = errors.New("sim: engine stopped")

// Handler is a callback invoked when its event fires. The engine passes
// itself so handlers can schedule follow-up events.
type Handler func(e *Engine)

// event is one arena slot. Events are ordered by firing time, then by
// scheduling sequence number, so simultaneous events fire in the order
// they were scheduled — a requirement for determinism. A slot with a
// positive period is a periodic process and is reinserted after each
// fire; a slot whose fn is nil is cancelled (or free) and is reclaimed
// when it surfaces.
type event struct {
	at     time.Duration
	seq    uint64
	fn     Handler
	period time.Duration
	gen    uint32
}

// Handle identifies a scheduled event. The zero Handle is inert: Cancel
// on it is a no-op and Active reports false. Handles are generation
// counted, so a stale handle (its event fired, or its slot was reused)
// safely does nothing.
type Handle struct {
	slot int32 // arena index + 1; 0 means "no event"
	gen  uint32
}

// Engine is a discrete-event simulator. Construct with NewEngine; the zero
// value is not usable because the random source must be seeded.
type Engine struct {
	now   time.Duration
	seq   uint64
	arena []event
	heap  []int32 // 4-ary min-heap of arena indices, keyed by (at, seq)
	// freeHead is the intrusive free list of reusable arena slots (index
	// + 1; 0 means empty). Free slots thread through their seq field, so
	// reclaiming an event never allocates.
	freeHead int32
	rng      *RNG
	stopped  bool
	// processed counts fired events, exposed for harness statistics.
	processed uint64
	// peakPending is the high-water mark of the event queue, exposed for
	// harness statistics. It is maintained by the single push path, so
	// Run and Step report it identically.
	peakPending int
	// afterEvent hooks run after every fired event, in registration
	// order. Runtime invariant checkers ride this hook; the fire path
	// skips the hook dispatch entirely when none are registered.
	afterEvent []Handler
	// components holds substrate objects attached to this engine so
	// cross-cutting observers (invariant checkers, probes) can discover
	// what the simulation is made of without the substrates importing
	// them.
	components []any
}

// NewEngine builds an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now reports the current virtual time (duration since simulation start).
func (e *Engine) Now() time.Duration { return e.now }

// RNG exposes the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Processed reports how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports how many events are currently scheduled (cancelled
// events count until their slot is lazily reclaimed, exactly as the
// queue length always has).
func (e *Engine) Pending() int { return len(e.heap) }

// PeakPending reports the high-water mark of the event queue over the
// engine's lifetime.
func (e *Engine) PeakPending() int { return e.peakPending }

// less orders two arena slots by (time, sequence).
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// heapPush inserts an arena index and maintains the queue-depth
// high-water mark. This is the only insertion path, so peakPending is
// consistent across Run, Step, and direct scheduling.
func (e *Engine) heapPush(idx int32) {
	h := append(e.heap, idx)
	// Sift up through 4-ary parents.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
	if len(h) > e.peakPending {
		e.peakPending = len(h)
	}
}

// heapPop removes and returns the minimum arena index.
func (e *Engine) heapPop() int32 {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	item := h[n]
	e.heap = h[:n]
	if n > 0 {
		h = e.heap
		// Sift the displaced last element down from the root.
		i := 0
		for {
			first := i*4 + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if e.less(h[c], h[best]) {
					best = c
				}
			}
			if !e.less(h[best], item) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = item
	}
	return top
}

// alloc takes a slot from the free list (or grows the arena), stamps it
// with the next sequence number, and returns its handle.
func (e *Engine) alloc(at time.Duration, fn Handler, period time.Duration) Handle {
	var idx int32
	if e.freeHead != 0 {
		idx = e.freeHead - 1
		e.freeHead = int32(e.arena[idx].seq)
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	ev.at = at
	ev.seq = e.seq
	e.seq++
	ev.fn = fn
	ev.period = period
	// ev.gen carries over from the slot's previous incarnation; bumping
	// happens at free time, which is what invalidates stale handles.
	return Handle{slot: idx + 1, gen: ev.gen}
}

// freeSlot retires a slot: the handler reference is dropped, the
// generation advances (invalidating outstanding handles), and the slot
// joins the intrusive free list for reuse, its seq field holding the
// next free slot.
func (e *Engine) freeSlot(idx int32) {
	ev := &e.arena[idx]
	ev.fn = nil
	ev.gen++
	ev.seq = uint64(e.freeHead)
	e.freeHead = idx + 1
}

// AfterEvent registers fn to run after every fired event, in registration
// order, with the clock still at the event's firing time. Hooks observe —
// they may read any component state — but must not schedule events or
// mutate substrates, or determinism relative to an unhooked engine is
// lost. The invariant checker layer rides this hook. When no hook is
// registered the fire path skips hook dispatch entirely.
func (e *Engine) AfterEvent(fn Handler) {
	e.afterEvent = append(e.afterEvent, fn)
}

// Register attaches a substrate component (fleet, cooling room, power
// topology, …) to the engine so cross-cutting observers can enumerate the
// simulation's parts via Components. Registration has no behavioural
// effect on the simulation itself.
func (e *Engine) Register(c any) {
	e.components = append(e.components, c)
}

// Components returns the registered substrate components in registration
// order. Callers must not mutate the returned slice.
func (e *Engine) Components() []any { return e.components }

// fireHooks invokes the after-event hooks for one fired event.
func (e *Engine) fireHooks() {
	for _, h := range e.afterEvent {
		h(e)
	}
}

// Cancel is returned by the Schedule-family convenience methods; calling
// it prevents the event from firing (it is a no-op after the event has
// fired). The allocation-free equivalent is Engine.Cancel on a Handle.
type Cancel func()

// At schedules fn to fire at absolute virtual time at and returns its
// handle. Scheduling in the past panics: it is always a programming error
// in a simulation. This is the allocation-free fast path; ScheduleAt
// wraps it when a self-contained cancel closure is more convenient.
func (e *Engine) At(at time.Duration, fn Handler) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	h := e.alloc(at, fn, 0)
	e.heapPush(h.slot - 1)
	return h
}

// After schedules fn to fire d after the current virtual time and returns
// its handle.
func (e *Engine) After(d time.Duration, fn Handler) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Periodic schedules fn to fire first at absolute time start and then
// repeatedly with the given period. The process occupies a single event
// slot for its whole lifetime — ticks do not allocate. Cancel(handle)
// stops future firings, including from inside fn itself.
func (e *Engine) Periodic(start, period time.Duration, fn Handler) Handle {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	h := e.alloc(start, fn, period)
	e.heapPush(h.slot - 1)
	return h
}

// Cancel invalidates a handle's event in O(1): the event will not fire
// (nor will a periodic process tick again), and its slot is reclaimed
// lazily when it surfaces at the heap top. Cancelling the zero Handle, a
// fired event, or an already-cancelled event is a no-op.
func (e *Engine) Cancel(h Handle) {
	if h.slot == 0 || int(h.slot) > len(e.arena) {
		return
	}
	ev := &e.arena[h.slot-1]
	if ev.gen != h.gen || ev.fn == nil {
		return
	}
	ev.fn = nil
}

// Active reports whether h still refers to a live event: scheduled and
// not cancelled (a periodic process is active for its whole lifetime).
func (e *Engine) Active(h Handle) bool {
	if h.slot == 0 || int(h.slot) > len(e.arena) {
		return false
	}
	ev := &e.arena[h.slot-1]
	return ev.gen == h.gen && ev.fn != nil
}

// ScheduleAt schedules fn to fire at absolute virtual time at. Scheduling
// in the past panics: it is always a programming error in a simulation.
func (e *Engine) ScheduleAt(at time.Duration, fn Handler) Cancel {
	h := e.At(at, fn)
	return func() { e.Cancel(h) }
}

// ScheduleAfter schedules fn to fire d after the current virtual time.
func (e *Engine) ScheduleAfter(d time.Duration, fn Handler) Cancel {
	h := e.After(d, fn)
	return func() { e.Cancel(h) }
}

// Every schedules fn to fire repeatedly with the given period, starting one
// period from now. The returned Cancel stops future firings.
func (e *Engine) Every(period time.Duration, fn Handler) Cancel {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	h := e.Periodic(e.now+period, period, fn)
	return func() { e.Cancel(h) }
}

// Stop halts Run after the currently-firing event returns. A stop applies
// only to the Run in progress: Run clears the flag on entry, so a stopped
// engine can always be resumed with a fresh call to Run (a Stop issued
// while no Run is executing is discarded).
func (e *Engine) Stop() { e.stopped = true }

// fire dispatches one popped arena slot and reports whether an event
// actually fired (false for a lazily-reclaimed cancelled slot). It is
// the single fire path shared by Run and Step, so cancelled-event
// skipping, the processed counter, periodic reinsertion, and hook
// dispatch behave identically under both.
func (e *Engine) fire(idx int32) bool {
	ev := &e.arena[idx]
	if ev.fn == nil {
		// Cancelled while queued: reclaim the slot, fire nothing.
		e.freeSlot(idx)
		return false
	}
	fn := ev.fn
	at := ev.at
	periodic := ev.period > 0
	if !periodic {
		// One-shot slots are recycled before dispatch so the handler's
		// own scheduling can reuse them; the generation bump makes the
		// outstanding handle inert, preserving cancel-after-fire = no-op.
		e.freeSlot(idx)
	}
	e.now = at
	e.processed++
	fn(e)
	if periodic {
		// Re-take the pointer: fn may have grown the arena.
		ev = &e.arena[idx]
		if ev.fn == nil {
			// Cancelled during its own tick: retire the slot.
			e.freeSlot(idx)
		} else {
			// Reuse the slot for the next tick. The sequence number is
			// taken after fn ran, exactly where the old per-tick event
			// allocation took it, so firing order is bit-for-bit
			// unchanged.
			ev.at = e.now + ev.period
			ev.seq = e.seq
			e.seq++
			e.heapPush(idx)
		}
	}
	if len(e.afterEvent) > 0 {
		e.fireHooks()
	}
	return true
}

// Run fires events in order until the queue is empty or virtual time would
// pass horizon. Events exactly at the horizon still fire. It returns
// ErrStopped if Stop was called during this run, otherwise nil. The
// stopped flag is cleared on entry, so a stopped engine resumes from where
// it halted when Run is called again. After Run returns, Now is
// min(horizon, time of last fired event) — the clock is advanced to the
// horizon when the queue drains early so that integrations cover the full
// window.
func (e *Engine) Run(horizon time.Duration) error {
	if horizon < e.now {
		return fmt.Errorf("sim: horizon %v before now %v", horizon, e.now)
	}
	e.stopped = false
	for len(e.heap) > 0 {
		if e.stopped {
			return ErrStopped
		}
		if e.arena[e.heap[0]].at > horizon {
			break
		}
		e.fire(e.heapPop())
	}
	if e.stopped {
		return ErrStopped
	}
	e.now = horizon
	return nil
}

// Step fires exactly one pending event (skipping cancelled ones) and
// reports whether an event fired. It shares Run's fire path, so the
// processed counter, peak-pending high-water mark, and hook dispatch are
// identical under single-stepping and free running.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		if e.fire(e.heapPop()) {
			return true
		}
	}
	return false
}
