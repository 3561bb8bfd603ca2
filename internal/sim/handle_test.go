package sim

import (
	"testing"
	"time"
)

// TestHandleCancelBeforeFire: the allocation-free Handle API cancels a
// pending event.
func TestHandleCancelBeforeFire(t *testing.T) {
	e := NewEngine(1)
	h := e.At(time.Second, func(*Engine) { t.Error("cancelled event fired") })
	if !e.Active(h) {
		t.Fatal("fresh handle not active")
	}
	e.Cancel(h)
	if e.Active(h) {
		t.Error("cancelled handle still active")
	}
	e.Cancel(h) // double cancel is a no-op
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestHandleStaleAfterFire: once a one-shot fires, its handle is inert —
// cancelling it must not affect whatever event reused the slot.
func TestHandleStaleAfterFire(t *testing.T) {
	e := NewEngine(1)
	h1 := e.At(time.Second, func(*Engine) {})
	if err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Active(h1) {
		t.Error("fired handle still active")
	}
	// The freed slot is reused by the next schedule; the stale handle
	// must not be able to cancel the new occupant.
	fired := false
	h2 := e.At(3*time.Second, func(*Engine) { fired = true })
	e.Cancel(h1)
	if !e.Active(h2) {
		t.Fatal("stale cancel killed the slot's new occupant")
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event in reused slot did not fire")
	}
}

// TestHandleZeroValueInert: the zero Handle cancels nothing and is never
// active.
func TestHandleZeroValueInert(t *testing.T) {
	e := NewEngine(1)
	var h Handle
	if e.Active(h) {
		t.Error("zero handle active")
	}
	e.Cancel(h) // must not panic or affect anything
	fired := false
	e.At(time.Second, func(*Engine) { fired = true })
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event did not fire")
	}
}

// TestPeriodicHandleReuse: a periodic process keeps one live handle for
// its whole lifetime; Cancel stops it, including from inside its own
// tick, and the slot's reuse by later events leaves the old handle inert.
func TestPeriodicHandleReuse(t *testing.T) {
	e := NewEngine(1)
	count := 0
	h := e.Periodic(time.Second, time.Second, func(*Engine) { count++ })
	if err := e.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
	if !e.Active(h) {
		t.Fatal("periodic handle went inactive mid-lifetime")
	}
	e.Cancel(h)
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("ticks after cancel = %d, want 3", count)
	}
}

// TestPeriodicSelfCancelViaHandle: a periodic that cancels its own handle
// during a tick stops immediately and frees its slot.
func TestPeriodicSelfCancelViaHandle(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var h Handle
	h = e.Periodic(time.Second, time.Second, func(eng *Engine) {
		count++
		if count == 2 {
			eng.Cancel(h)
		}
	})
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("ticks = %d, want 2", count)
	}
	if e.Active(h) {
		t.Error("self-cancelled periodic still active")
	}
}

// TestStepPeakPendingConsistentWithRun is the regression test for the
// Step/peakPending satellite: a drain-and-refill pattern driven through
// Step must report the same high-water mark as the identical schedule
// driven through Run, and cancelled events must be skipped by Step
// without firing hooks or bumping Processed.
func TestStepPeakPendingConsistentWithRun(t *testing.T) {
	script := func(drive func(e *Engine)) (peak int, processed uint64, hooks int) {
		e := NewEngine(1)
		h := 0
		e.AfterEvent(func(*Engine) { h++ })
		fn := func(*Engine) {}
		// Fill to depth 5, drain, refill to depth 3 with one cancelled.
		for i := 1; i <= 5; i++ {
			e.At(time.Duration(i)*time.Second, fn)
		}
		drive(e)
		c := e.After(10*time.Second, fn)
		e.After(11*time.Second, fn)
		e.After(12*time.Second, fn)
		e.Cancel(c)
		drive(e)
		return e.PeakPending(), e.Processed(), h
	}
	stepAll := func(e *Engine) {
		for e.Step() {
		}
	}
	runAll := func(e *Engine) {
		if err := e.Run(e.Now() + time.Hour); err != nil {
			panic(err)
		}
	}
	sPeak, sProc, sHooks := script(stepAll)
	rPeak, rProc, rHooks := script(runAll)
	if sPeak != rPeak {
		t.Errorf("peak pending: Step=%d Run=%d", sPeak, rPeak)
	}
	if sPeak != 5 {
		t.Errorf("peak = %d, want 5 (high-water from first fill)", sPeak)
	}
	if sProc != rProc {
		t.Errorf("processed: Step=%d Run=%d", sProc, rProc)
	}
	if sProc != 7 {
		t.Errorf("processed = %d, want 7 (cancelled event must not count)", sProc)
	}
	if sHooks != rHooks {
		t.Errorf("hook firings: Step=%d Run=%d", sHooks, rHooks)
	}
	if sHooks != 7 {
		t.Errorf("hooks = %d, want 7 (cancelled event must not fire hooks)", sHooks)
	}
}

// TestSlotReuseKeepsArenaCompact: steady-state schedule/fire churn must
// reuse slots rather than grow the arena without bound.
func TestSlotReuseKeepsArenaCompact(t *testing.T) {
	e := NewEngine(1)
	var chain Handler
	n := 0
	chain = func(eng *Engine) {
		n++
		if n < 10000 {
			eng.After(time.Millisecond, chain)
		}
	}
	e.After(time.Millisecond, chain)
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if n != 10000 {
		t.Fatalf("fired %d chain events", n)
	}
	if got := len(e.arena); got > 4 {
		t.Errorf("arena grew to %d slots for a 1-deep chain, want <= 4", got)
	}
}
