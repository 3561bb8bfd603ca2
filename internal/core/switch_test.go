package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sim"
)

// TestSwitchBatchesMatchPerServerEvents holds a fleet's completion
// batches to one event per switch. A 1,100-server fleet in racks and
// zones, its loops on a 2-worker pool, and 1,100 standalone servers on
// the same engine run one seeded script. Each step is an engine event:
// the fleet takes SetTarget up and down (often below the committed count
// inside a boot window), crashes below the live bound, handle PowerOff
// and PowerOn, dispatches and Syncs; the standalone servers take the
// same writes one server at a time, SetTarget as the loop of one
// PowerOn or PowerOff per server that the fleet ran before its
// completions were batched. A step lands at a random instant, at the
// same instant, or exactly on the boot or shutdown deadline of the step
// before it, scheduled before that step's switches or after them, so it
// runs before the deadline's completions or after them. After every
// step every slot reads the same bits as its standalone server, and the
// fleet's OnCount, ActiveCount and Switches equal the standalone
// servers' counts.
func TestSwitchBatchesMatchPerServerEvents(t *testing.T) {
	const n, steps = 1100, 500
	cfg := testServerConfig()
	cfg.PowerCurve = server.BigLittleCurve()
	e := sim.NewEngine(1)
	f, err := NewFleet(e, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	f.SetParallel(newTestPool(t, 2))
	if len(f.shards) < 2 {
		t.Fatalf("fleet has %d shards, want at least 2", len(f.shards))
	}
	rackOf, zoneOf := make([]int, n), make([]int, n)
	for i := range rackOf {
		rackOf[i], zoneOf[i] = i/40, (i/40)%4
	}
	if err := f.SetPowerGroups(rackOf, zoneOf, (n+39)/40, 4); err != nil {
		t.Fatal(err)
	}
	solo := make([]*server.Server, n)
	for i := range solo {
		solo[i] = server.MustNew(cfg)
	}

	// setTarget is SetTarget's loop over the standalone servers, one
	// PowerOn or PowerOff each.
	ons, offs := 0, 0
	committed := func(s *server.Server) bool {
		st := s.State()
		return st == server.StateActive || st == server.StateBooting
	}
	setTarget := func(target int) {
		on := 0
		for _, s := range solo {
			if committed(s) {
				on++
			}
		}
		for i := 0; i < n && on < target; i++ {
			if solo[i].State() == server.StateOff {
				solo[i].PowerOn(e)
				ons++
				on++
			}
		}
		for i := n - 1; i >= 0 && on > target; i-- {
			if committed(solo[i]) {
				solo[i].PowerOff(e)
				offs++
				on--
			}
		}
	}

	rng := rand.New(rand.NewSource(23))
	var step func(*sim.Engine)
	done, holes, aborted, onDeadline := 0, 0, 0, 0
	step = func(e *sim.Engine) {
		now := e.Now()
		// The next step: at a random instant, at this one, or on the
		// deadline of a boot or shutdown this step may start; scheduled
		// before this step's switches or after them.
		var next time.Duration
		switch r := rng.Intn(8); {
		case r < 4:
			next = now + time.Duration(rng.Intn(60)+1)*time.Second
		case r == 4:
			next = now
		case r == 5:
			next, onDeadline = now+cfg.BootDelay, onDeadline+1
		default:
			next, onDeadline = now+cfg.ShutdownDelay, onDeadline+1
		}
		early := rng.Intn(2) == 0
		if done+1 < steps && early {
			e.At(next, step)
		}

		op := rng.Intn(10)
		switch op {
		case 0, 1, 2:
			target := rng.Intn(n + 1)
			booting := false
			for _, s := range solo {
				booting = booting || s.State() == server.StateBooting
			}
			if booting && rng.Intn(2) == 0 {
				// Lower the target inside a boot window.
				target = rng.Intn(f.OnCount() + 1)
				aborted++
			}
			f.SetTarget(target)
			setTarget(target)
		case 3:
			// A crash below the live bound leaves an Off slot under it.
			if end := f.block.LiveEnd(); end > 0 {
				i := rng.Intn(end)
				if f.ServerAt(i).Crash(now) {
					holes++
				}
				solo[i].Crash(now)
			}
		case 4:
			i := rng.Intn(n)
			f.ServerAt(i).PowerOff(e)
			solo[i].PowerOff(e)
		case 5:
			i := rng.Intn(n)
			f.ServerAt(i).PowerOn(e)
			solo[i].PowerOn(e)
		case 6, 7:
			_, maxU := f.Dispatch(now, rng.Float64()*float64(n)*cfg.Capacity)
			for _, s := range solo {
				if s.State() == server.StateOff {
					continue
				}
				var u float64
				if s.AvailableCapacity() > 0 {
					u = maxU // the fill, whenever some server has capacity
				}
				s.SetUtilization(now, u)
			}
		default:
			for _, s := range solo {
				if s.State() != server.StateOff {
					s.Sync(now)
				}
			}
			f.Sync(now)
		}

		for i, s := range solo {
			if got, want := readBits(f.ServerAt(i)), readBits(s); got != want {
				t.Fatalf("step %d (op %d) at %v: fleet slot %d %+v, standalone %+v", done, op, now, i, got, want)
			}
		}
		on, active := 0, 0
		for _, s := range solo {
			if committed(s) {
				on++
			}
			if s.State() == server.StateActive {
				active++
			}
		}
		if f.OnCount() != on || f.ActiveCount() != active {
			t.Fatalf("step %d (op %d): fleet on/active %d/%d, standalone %d/%d", done, op, f.OnCount(), f.ActiveCount(), on, active)
		}
		if gotOn, gotOff := f.Switches(); gotOn != ons || gotOff != offs {
			t.Fatalf("step %d (op %d): fleet switches %d/%d, standalone %d/%d", done, op, gotOn, gotOff, ons, offs)
		}
		if err := f.VerifyAggregates(); err != nil {
			t.Fatalf("step %d (op %d): %v", done, op, err)
		}
		done++
		if done < steps && !early {
			e.At(next, step)
		}
	}
	e.At(0, step)
	if err := e.Run(time.Duration(steps) * time.Hour); err != nil {
		t.Fatal(err)
	}
	if done != steps {
		t.Fatalf("ran %d steps, want %d", done, steps)
	}
	if ons == 0 || offs == 0 || holes == 0 || aborted == 0 || onDeadline == 0 {
		t.Fatalf("script lost its coverage: %d/%d switches, %d crashes below the bound, %d lowered targets in a boot window, %d steps on a deadline",
			ons, offs, holes, aborted, onDeadline)
	}
}
