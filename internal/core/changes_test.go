package core

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// slotReading is what a server's notification reports on: a slot
// notifies exactly when one of these moved since its last notification.
type slotReading struct {
	state          int
	power, energyJ uint64
	trips          int
}

func readSlots(f *Fleet) []slotReading {
	out := make([]slotReading, f.Size())
	for slot := range out {
		s := f.ServerAt(slot)
		out[slot] = slotReading{int(s.State()), math.Float64bits(s.Power()), math.Float64bits(s.EnergyJ()), s.Trips()}
	}
	return out
}

// runChangeSetScenario drives a tracked 2048-server facility through
// serial boots and sheds, sharded dispatches and a sharded trip scan. At
// every step it requires the change set to hold each slot that notified,
// once, and nothing else, and it returns the change sets in their
// recorded order.
func runChangeSetScenario(t *testing.T, workers int) [][]int32 {
	t.Helper()
	e := sim.NewEngine(1)
	srvCfg := testServerConfig()
	dc := shardedTestDC(t, e, newTestPool(t, workers), 512, 0)
	f := dc.Fleet()
	n := f.Size()
	if len(f.shards) < 2 {
		t.Fatal("test facility has a single shard")
	}
	f.TrackChanges()

	var sets [][]int32
	step := func(name string, op func()) {
		t.Helper()
		before := readSlots(f)
		op()
		after := readSlots(f)
		var want []int32
		for slot := range after {
			if after[slot] != before[slot] {
				want = append(want, int32(slot))
			}
		}
		got := slices.Clone(f.Changed())
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		if !slices.Equal(sorted, want) {
			t.Fatalf("workers=%d %s: change set holds %d slots, %d notified", workers, name, len(got), len(want))
		}
		if len(want) == 0 || len(want) == n {
			t.Fatalf("workers=%d %s: %d of %d slots changed; the step should change a strict subset", workers, name, len(want), n)
		}
		sets = append(sets, got)
		f.ResetChanged()
	}
	step("boot", func() { f.SetTarget(3 * n / 4) })
	step("boot completion", func() {
		if err := e.Run(srvCfg.BootDelay + time.Second); err != nil {
			t.Fatal(err)
		}
	})
	step("shed", func() { f.SetTarget(n / 2) })
	now := e.Now()
	for k := 0; k < 3; k++ {
		now += time.Minute
		step("dispatch", func() {
			f.Dispatch(now, (0.2+0.1*float64(k))*float64(n)*srvCfg.Capacity)
		})
	}
	step("trip scan", func() {
		trips := f.Trips()
		if f.observeInlets(now, []float64{srvCfg.TripTempC + 10}); f.Trips() == trips {
			t.Fatal("forced trip scan caused no trip")
		}
	})
	return sets
}

// TestChangeSetMatchesInline: inside and outside shard phases a tracked
// fleet marks exactly the slots that notified, and a 2-worker pool
// records the same sets, in the same order, as inline execution.
func TestChangeSetMatchesInline(t *testing.T) {
	ref := runChangeSetScenario(t, 1)
	if got := runChangeSetScenario(t, 2); !reflect.DeepEqual(got, ref) {
		t.Error("workers=2 change sets diverged from the inline ones")
	}
}

// TestChangeSetResetAndUntracked: an untracked fleet records nothing; a
// tracked one lists each notifying slot once until ResetChanged, which
// empties the set so a slot that notifies again is listed again.
func TestChangeSetResetAndUntracked(t *testing.T) {
	e := sim.NewEngine(1)
	f := bootedFleet(t, e, 8, 4)
	f.Dispatch(e.Now(), 1000)
	if got := f.Changed(); len(got) != 0 {
		t.Fatalf("untracked fleet recorded %v", got)
	}

	f.TrackChanges()
	f.SetTarget(6)
	f.Dispatch(e.Now()+time.Second, 1000)
	f.Dispatch(e.Now()+2*time.Second, 1500)
	want := []int32{4, 5, 0, 1, 2, 3}
	if got := f.Changed(); !slices.Equal(got, want) {
		t.Fatalf("change set %v, want %v", got, want)
	}
	f.ResetChanged()
	if got := f.Changed(); len(got) != 0 {
		t.Fatalf("change set after ResetChanged: %v", got)
	}
	f.ServerAt(4).Sync(e.Now() + 3*time.Second)
	if got := f.Changed(); !slices.Equal(got, []int32{4}) {
		t.Fatalf("change set after a reset slot notified again: %v, want [4]", got)
	}
	if err := f.VerifyAggregates(); err != nil {
		t.Fatal(err)
	}
}
