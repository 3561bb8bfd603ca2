package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(3*time.Second, func(*Engine) { got = append(got, 3) })
	e.At(1*time.Second, func(*Engine) { got = append(got, 1) })
	e.At(2*time.Second, func(*Engine) { got = append(got, 2) })
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want horizon 10s", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func(*Engine) { got = append(got, i) })
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events out of order: %v", got)
		}
	}
}

func TestAfterUsesNow(t *testing.T) {
	e := NewEngine(1)
	var firedAt time.Duration
	e.At(5*time.Second, func(eng *Engine) {
		eng.After(2*time.Second, func(eng2 *Engine) {
			firedAt = eng2.Now()
		})
	})
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if firedAt != 7*time.Second {
		t.Errorf("nested event fired at %v, want 7s", firedAt)
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Every(time.Minute, func(*Engine) { count++ })
	if err := e.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("periodic fired %d times, want 10", count)
	}
}

func TestPeriodicFromStart(t *testing.T) {
	e := NewEngine(1)
	var times []time.Duration
	e.Periodic(0, 15*time.Minute, func(eng *Engine) {
		times = append(times, eng.Now())
	})
	if err := e.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 15 * time.Minute, 30 * time.Minute}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Every(time.Second, func(eng *Engine) {
		count++
		if count == 5 {
			eng.Stop()
		}
	})
	err := e.Run(time.Hour)
	if err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 5 {
		t.Errorf("fired %d times before stop, want 5", count)
	}
}

func TestRunHorizonBeforeNow(t *testing.T) {
	e := NewEngine(1)
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(time.Millisecond); err == nil {
		t.Error("running to an earlier horizon should error")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	_ = e.Run(time.Second)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.At(0, func(*Engine) {})
}

func TestStep(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(time.Second, func(*Engine) { fired++ })
	e.At(2*time.Second, func(*Engine) { fired++ })
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if fired != 1 || e.Now() != time.Second {
		t.Errorf("after one step: fired=%d now=%v", fired, e.Now())
	}
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if e.Step() {
		t.Error("Step returned true with empty queue")
	}
	if e.Processed() != 2 {
		t.Errorf("Processed = %d, want 2", e.Processed())
	}
}

func TestEventsBeyondHorizonStayQueued(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(time.Hour, func(*Engine) { fired = true })
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event beyond horizon fired")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event did not fire after extending horizon")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(42)
		var draws []float64
		e.Every(time.Second, func(eng *Engine) {
			draws = append(draws, eng.RNG().Float64())
		})
		_ = e.Run(10 * time.Second)
		return draws
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.After(-time.Second, func(*Engine) {})
}

func TestEveryNonPositivePeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("zero period should panic")
		}
	}()
	e.Every(0, func(*Engine) {})
}

func TestPeriodicNonPositivePeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("zero period should panic")
		}
	}()
	e.Periodic(time.Second, 0, func(*Engine) {})
}

func TestStepSkipsCancelled(t *testing.T) {
	e := NewEngine(1)
	h := e.At(time.Second, func(*Engine) { t.Error("cancelled event fired") })
	e.Cancel(h)
	fired := false
	e.At(2*time.Second, func(*Engine) { fired = true })
	if !e.Step() {
		t.Fatal("Step found nothing")
	}
	if !fired {
		t.Error("Step did not skip the cancelled event")
	}
}

func TestRunStopsMidQueue(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(time.Second, func(eng *Engine) { eng.Stop() })
	e.At(2*time.Second, func(*Engine) { fired = true })
	if err := e.Run(time.Hour); err != ErrStopped {
		t.Fatalf("err = %v", err)
	}
	if fired {
		t.Error("event after stop fired during the stopped run")
	}
	if e.Now() != time.Second {
		t.Errorf("clock after stop = %v, want 1s", e.Now())
	}
	// Stop applies only to the run in progress: a second Run resumes from
	// where the engine halted and drains the remaining events.
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatalf("resumed run err = %v", err)
	}
	if !fired {
		t.Error("pending event did not fire on resume")
	}
	if e.Now() != 2*time.Hour {
		t.Errorf("clock after resume = %v, want horizon", e.Now())
	}
}

func TestRunResumesAfterRepeatedStops(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	for i := 1; i <= 3; i++ {
		i := i
		e.At(time.Duration(i)*time.Second, func(eng *Engine) {
			fired = append(fired, i)
			eng.Stop()
		})
	}
	for i := 1; i <= 3; i++ {
		if err := e.Run(time.Hour); err != ErrStopped {
			t.Fatalf("run %d err = %v", i, err)
		}
		if len(fired) != i {
			t.Fatalf("after run %d fired %v", i, fired)
		}
	}
	if err := e.Run(time.Hour); err != nil {
		t.Fatalf("final run err = %v", err)
	}
}

func TestPeakPendingHighWaterMark(t *testing.T) {
	e := NewEngine(1)
	for i := 1; i <= 5; i++ {
		e.At(time.Duration(i)*time.Second, func(*Engine) {})
	}
	if got := e.PeakPending(); got != 5 {
		t.Fatalf("peak before run = %d, want 5", got)
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("pending after run = %d, want 0", got)
	}
	if got := e.PeakPending(); got != 5 {
		t.Errorf("peak after run = %d, want 5 (high-water mark must not decay)", got)
	}
}

func TestProbeAggregatesEngines(t *testing.T) {
	var p Probe
	a := p.Observe(NewEngine(1))
	b := p.Observe(NewEngine(2))
	for i := 1; i <= 3; i++ {
		a.At(time.Duration(i)*time.Second, func(*Engine) {})
	}
	b.At(time.Second, func(*Engine) {})
	if err := a.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Engines != 2 {
		t.Errorf("engines = %d, want 2", s.Engines)
	}
	if s.Processed != 4 {
		t.Errorf("processed = %d, want 4", s.Processed)
	}
	if s.PeakPending != 3 {
		t.Errorf("peak pending = %d, want 3", s.PeakPending)
	}
}
