package sim

import (
	"testing"
	"time"
)

// TestAfterEventFiresPerEvent: hooks run once after every fired event, in
// registration order, with the clock at the event's time.
func TestAfterEventFiresPerEvent(t *testing.T) {
	e := NewEngine(1)
	var order []string
	var times []time.Duration
	e.AfterEvent(func(eng *Engine) {
		order = append(order, "a")
		times = append(times, eng.Now())
	})
	e.AfterEvent(func(*Engine) { order = append(order, "b") })

	e.At(time.Second, func(*Engine) {})
	e.At(2*time.Second, func(*Engine) {})
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 || order[0] != "a" || order[1] != "b" || order[2] != "a" || order[3] != "b" {
		t.Fatalf("hook order = %v, want [a b a b]", order)
	}
	if times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("hook times = %v", times)
	}
}

// TestAfterEventSkipsCancelled: a cancelled event does not fire, so its
// hooks must not run either.
func TestAfterEventSkipsCancelled(t *testing.T) {
	e := NewEngine(1)
	hooks := 0
	e.AfterEvent(func(*Engine) { hooks++ })
	h := e.At(time.Second, func(*Engine) { t.Fatal("cancelled event fired") })
	e.Cancel(h)
	e.At(2*time.Second, func(*Engine) {})
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if hooks != 1 {
		t.Fatalf("hooks fired %d times, want 1", hooks)
	}
}

// TestAfterEventOnStep: Step honours the hook exactly like Run.
func TestAfterEventOnStep(t *testing.T) {
	e := NewEngine(1)
	hooks := 0
	e.AfterEvent(func(*Engine) { hooks++ })
	e.At(time.Second, func(*Engine) {})
	if !e.Step() {
		t.Fatal("Step fired nothing")
	}
	if hooks != 1 {
		t.Fatalf("hooks fired %d times after Step, want 1", hooks)
	}
}

// TestComponentRegistry: Register/Components preserve order and identity,
// and registration is behaviourally inert.
func TestComponentRegistry(t *testing.T) {
	e := NewEngine(1)
	if got := e.Components(); len(got) != 0 {
		t.Fatalf("fresh engine has components: %v", got)
	}
	a, b := &struct{ n int }{1}, &struct{ n int }{2}
	e.Register(a)
	e.Register(b)
	got := e.Components()
	if len(got) != 2 || got[0] != any(a) || got[1] != any(b) {
		t.Fatalf("Components() = %v, want [a b]", got)
	}
}

// TestHooksPreserveDeterminism: an engine with a read-only hook fires the
// same events at the same times as one without.
func TestHooksPreserveDeterminism(t *testing.T) {
	run := func(hook bool) []time.Duration {
		e := NewEngine(42)
		var fired []time.Duration
		if hook {
			e.AfterEvent(func(*Engine) {})
		}
		var chain Handler
		chain = func(eng *Engine) {
			fired = append(fired, eng.Now())
			delay := time.Duration(eng.RNG().Float64() * float64(time.Minute))
			eng.After(delay, chain)
		}
		e.After(time.Second, chain)
		if err := e.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	plain, hooked := run(false), run(true)
	if len(plain) != len(hooked) {
		t.Fatalf("event counts differ: %d vs %d", len(plain), len(hooked))
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("event %d at %v vs %v", i, plain[i], hooked[i])
		}
	}
}
