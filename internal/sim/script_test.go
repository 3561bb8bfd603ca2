package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// runKernelScript exercises every scheduling primitive the kernel offers in
// one deliberately tangled script — simultaneous events, cancels before
// fire, cancels issued from inside other handlers, self-cancelling
// periodics, RNG-driven nested scheduling, interleaved Step and Run calls —
// and returns the fired-event sequence as "tag@time" strings. The expected
// sequence below was captured from the pointer-heap kernel that predates
// the index-heap rewrite; it is the kernel-level bit-for-bit equivalence
// proof (the experiment-level proof is the golden-fixture suite).
func runKernelScript() []string {
	e := NewEngine(99)
	var fired []string
	log := func(tag string) Handler {
		return func(eng *Engine) {
			fired = append(fired, fmt.Sprintf("%s@%v", tag, eng.Now()))
		}
	}

	// Simultaneous events must fire in scheduling order.
	e.ScheduleAt(2*time.Second, log("a"))
	e.ScheduleAt(2*time.Second, log("b"))
	e.ScheduleAt(time.Second, log("c"))

	// Cancelled before fire: must never appear.
	cancelD := e.ScheduleAt(3*time.Second, log("d"))
	cancelD()

	// A handler that cancels a later event and schedules nested follow-ups
	// with RNG-driven delays.
	var cancelE Cancel
	cancelE = e.ScheduleAt(5*time.Second, log("e"))
	e.ScheduleAt(4*time.Second, func(eng *Engine) {
		fired = append(fired, fmt.Sprintf("killer@%v", eng.Now()))
		cancelE()
		d := time.Duration(eng.RNG().Float64() * float64(2*time.Second))
		eng.ScheduleAfter(d, log("nested1"))
		eng.ScheduleAfter(d/2, log("nested2"))
	})

	// Periodic that cancels itself on the third tick.
	tick := 0
	var cancelP Cancel
	cancelP = e.Every(1500*time.Millisecond, func(eng *Engine) {
		tick++
		fired = append(fired, fmt.Sprintf("p%d@%v", tick, eng.Now()))
		if tick == 3 {
			cancelP()
		}
	})

	// Periodic anchored at an absolute start, cancelled externally later.
	q := e.Periodic(500*time.Millisecond, 2*time.Second, log("q"))

	// Drive the first chunk one event at a time through Step.
	for i := 0; i < 4; i++ {
		e.Step()
	}
	// Then run to an interior horizon, cancel the anchored periodic from
	// outside, and drain the rest.
	if err := e.Run(6 * time.Second); err != nil {
		panic(err)
	}
	e.Cancel(q)
	e.Every(3*time.Second, func(eng *Engine) {
		fired = append(fired, fmt.Sprintf("late@%v", eng.Now()))
		eng.ScheduleAfter(time.Duration(eng.RNG().Float64()*float64(time.Second)), log("echo"))
	})
	if err := e.Run(12 * time.Second); err != nil {
		panic(err)
	}
	fired = append(fired, fmt.Sprintf("end:now=%v,processed=%d,pending=%d,peak=%d",
		e.Now(), e.Processed(), e.Pending(), e.PeakPending()))
	return fired
}

// kernelScriptWant is the sequence the pre-rewrite pointer-heap kernel
// produced for runKernelScript (captured at the commit introducing this
// test, before the index-heap rewrite landed). Any divergence means the
// kernel's observable behaviour changed.
const kernelScriptWant = `q@500ms
c@1s
p1@1.5s
a@2s
b@2s
q@2.5s
p2@3s
killer@4s
nested2@4.263577614s
q@4.5s
p3@4.5s
nested1@4.527155229s
late@9s
echo@9.635817303s
late@12s
end:now=12s,processed=15,pending=2,peak=8`

func TestKernelScriptSequence(t *testing.T) {
	got := strings.Join(runKernelScript(), "\n")
	if got != kernelScriptWant {
		t.Fatalf("kernel script sequence diverged from the pre-rewrite kernel:\ngot:\n%s\n\nwant:\n%s", got, kernelScriptWant)
	}
}

// TestKernelScriptStable: the script is itself deterministic run-to-run,
// so a future divergence in TestKernelScriptSequence is a kernel change,
// not script noise.
func TestKernelScriptStable(t *testing.T) {
	a := strings.Join(runKernelScript(), "\n")
	b := strings.Join(runKernelScript(), "\n")
	if a != b {
		t.Fatalf("script not deterministic:\n%s\nvs\n%s", a, b)
	}
}
