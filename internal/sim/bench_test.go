package sim

import (
	"fmt"
	"testing"
	"time"
)

// Kernel microbenchmarks. These pin allocs/op at the layer the
// allocation-free rewrite targets: scheduling, firing, cancellation, and
// periodic churn, at queue depths spanning 10^4–10^6 pending events. The
// end-to-end numbers live in the repo-root bench suite; these isolate the
// kernel so a regression cannot hide behind substrate noise.

// benchSizes are the pending-queue depths the depth-sensitive benches sweep.
var benchSizes = []int{10_000, 100_000, 1_000_000}

// BenchmarkSchedule measures one At into a queue preloaded with
// size pending events (push cost at depth, plus per-event allocations).
func BenchmarkSchedule(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("pending=%d", size), func(b *testing.B) {
			e := NewEngine(1)
			fn := func(*Engine) {}
			for i := 0; i < size; i++ {
				e.At(time.Duration(i)*time.Millisecond, fn)
			}
			base := time.Duration(size) * time.Millisecond
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.At(base+time.Duration(i), fn)
			}
		})
	}
}

// BenchmarkRunLargeQueue measures draining size events through Run —
// the fire path: pop, dispatch, hook check — and reports events/sec.
func BenchmarkRunLargeQueue(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("events=%d", size), func(b *testing.B) {
			fn := func(*Engine) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := NewEngine(1)
				for j := 0; j < size; j++ {
					e.At(time.Duration(j)*time.Microsecond, fn)
				}
				b.StartTimer()
				if err := e.Run(time.Duration(size) * time.Microsecond); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkPeriodicTicks measures periodic-process churn: 100 Every
// processes ticking through a long horizon. The old kernel allocated a
// fresh event per tick; the rewrite reuses the slot.
func BenchmarkPeriodicTicks(b *testing.B) {
	const procs = 100
	const ticksPer = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine(1)
		for p := 0; p < procs; p++ {
			e.Every(time.Second, func(*Engine) {})
		}
		b.StartTimer()
		if err := e.Run(ticksPer * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(procs*ticksPer)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkCancelHeavy measures the schedule-then-cancel pattern (timeouts
// that almost never fire): schedule size events, cancel 90 % of them, then
// drain. Lazy cancellation makes the cancel itself O(1); the drain pays
// the skip.
func BenchmarkCancelHeavy(b *testing.B) {
	const size = 100_000
	fn := func(*Engine) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine(1)
		handles := make([]Handle, 0, size)
		for j := 0; j < size; j++ {
			handles = append(handles, e.At(time.Duration(j)*time.Microsecond, fn))
		}
		b.StartTimer()
		for j, h := range handles {
			if j%10 != 0 {
				e.Cancel(h)
			}
		}
		if err := e.Run(time.Duration(size) * time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleFireSteady measures the steady-state schedule-one /
// fire-one cycle that dominates event-driven substrates: each fired event
// schedules its successor, so the queue stays shallow and the per-event
// constant cost (not heap depth) is what's visible.
func BenchmarkScheduleFireSteady(b *testing.B) {
	e := NewEngine(1)
	var chain Handler
	n := 0
	chain = func(eng *Engine) {
		n++
		eng.After(time.Microsecond, chain)
	}
	e.After(time.Microsecond, chain)
	b.ReportAllocs()
	b.ResetTimer()
	// Each Step fires exactly one chain event which schedules the next.
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if n < b.N {
		b.Fatalf("fired %d events over %d iterations", n, b.N)
	}
}
