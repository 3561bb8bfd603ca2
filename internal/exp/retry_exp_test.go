package exp

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRetryStormShape(t *testing.T) {
	r := run(t, "retry-storm").(RetryStormResult)
	// The defining property of a metastable failure: the overload
	// outlives its trigger by an order of magnitude under naive retries.
	if r.Naive.OverloadMinutes < 10*r.TriggerMinutes {
		t.Errorf("naive overload %.1f min after a %.0f-min trigger, want >= 10x",
			r.Naive.OverloadMinutes, r.TriggerMinutes)
	}
	if r.Naive.RecoveryMinutes < 10*r.TriggerMinutes {
		t.Errorf("naive recovery %.1f min, want the storm to outlive the trigger >= 10x",
			r.Naive.RecoveryMinutes)
	}
	// The retry budget caps retry flow below the divergence threshold.
	if r.Budget.RecoveryMinutes > 2*r.TriggerMinutes {
		t.Errorf("budget recovery %.1f min after a %.0f-min trigger, want <= 2x",
			r.Budget.RecoveryMinutes, r.TriggerMinutes)
	}
	if r.Budget.AbandonedFrac > 1e-9 {
		t.Errorf("budget abandoned %.3g of fresh users, want none", r.Budget.AbandonedFrac)
	}
	if r.Budget.GoodputFrac <= r.Naive.GoodputFrac {
		t.Errorf("budget goodput %.3f vs naive %.3f, want better",
			r.Budget.GoodputFrac, r.Naive.GoodputFrac)
	}
	// A breaker over naive clients caps the rejection waste (better
	// goodput than bare naive) but the clients re-trip it on every
	// close, so it keeps cycling instead of recovering.
	if r.Breaker.GoodputFrac <= r.Naive.GoodputFrac {
		t.Errorf("breaker goodput %.3f vs naive %.3f, want better",
			r.Breaker.GoodputFrac, r.Naive.GoodputFrac)
	}
	if r.Breaker.BreakerTrips <= 1 {
		t.Errorf("breaker trips %d, want duty-cycling (naive clients re-trip on close)",
			r.Breaker.BreakerTrips)
	}
	// The full stack trips exactly once for the dip and returns to
	// clean service.
	if r.Stack.BreakerTrips != 1 {
		t.Errorf("stack trips %d, want exactly 1", r.Stack.BreakerTrips)
	}
	if r.Stack.RecoveryMinutes > 2*r.TriggerMinutes {
		t.Errorf("stack recovery %.1f min, want <= 2x trigger", r.Stack.RecoveryMinutes)
	}
	if r.Stack.GoodputFrac < 0.99 {
		t.Errorf("stack goodput %.3f, want >= 0.99", r.Stack.GoodputFrac)
	}
	// Amplification separates storming clients from throttled ones.
	if r.Naive.Amplification < 3 {
		t.Errorf("naive amplification %.2f, want a storm (>= 3 attempts/user)", r.Naive.Amplification)
	}
	if r.Budget.Amplification > 1.1 {
		t.Errorf("budget amplification %.2f, want near 1", r.Budget.Amplification)
	}
}

func TestRetryBudgetShape(t *testing.T) {
	r := run(t, "retry-budget").(RetryBudgetResult)
	// Goodput orders by how hard the policy throttles the feedback:
	// budget > backoff > naive. Backoff spreads retries over time —
	// which admits more users than hammering — but the steady-state
	// retry rate is unchanged, so it cannot break the loop.
	if r.Budget.GoodputFrac <= r.Backoff.GoodputFrac {
		t.Errorf("budget goodput %.3f vs backoff %.3f, want better",
			r.Budget.GoodputFrac, r.Backoff.GoodputFrac)
	}
	if r.Backoff.GoodputFrac <= r.Naive.GoodputFrac {
		t.Errorf("backoff goodput %.3f vs naive %.3f, want better",
			r.Backoff.GoodputFrac, r.Naive.GoodputFrac)
	}
	if r.Naive.OverloadMinutes < 10*r.SpikeMinutes {
		t.Errorf("naive overload %.1f min after a %.0f-min spike, want a sustained storm",
			r.Naive.OverloadMinutes, r.SpikeMinutes)
	}
	if r.Budget.OverloadMinutes > 2*r.SpikeMinutes {
		t.Errorf("budget overload %.1f min, want bounded by the spike", r.Budget.OverloadMinutes)
	}
	if r.Budget.RecoveryMinutes >= r.Naive.RecoveryMinutes {
		t.Errorf("budget recovery %.1f min vs naive %.1f, want faster",
			r.Budget.RecoveryMinutes, r.Naive.RecoveryMinutes)
	}
	if r.Budget.AbandonedFrac > 1e-9 {
		t.Errorf("budget abandoned %.3g of fresh users, want none", r.Budget.AbandonedFrac)
	}
}

func TestFaultRackShape(t *testing.T) {
	r := run(t, "fault-rack").(FaultRackResult)
	perRack := r.Servers / 4
	if r.Correlated.Injections != 1 {
		t.Errorf("correlated injections %d, want 1 rack failure", r.Correlated.Injections)
	}
	if r.Dispersed.Injections != perRack {
		t.Errorf("dispersed injections %d, want %d crashes", r.Dispersed.Injections, perRack)
	}
	// Same downtime budget, different concentration.
	if r.Correlated.MinActive != r.Servers-perRack {
		t.Errorf("correlated min active %d, want %d (whole rack down)",
			r.Correlated.MinActive, r.Servers-perRack)
	}
	if r.Dispersed.MinActive != r.Servers-1 {
		t.Errorf("dispersed min active %d, want %d (one at a time)",
			r.Dispersed.MinActive, r.Servers-1)
	}
	// The rack notice trips the breaker proactively and holds the shed
	// ladder; users see rejections, fast-fails, and abandonment.
	if r.Correlated.BreakerTrips < 1 {
		t.Error("correlated rack loss never opened the breaker")
	}
	if r.Correlated.FastFailed <= 0 || r.Correlated.RejectedUsers <= 0 {
		t.Errorf("correlated loss must turn users away: fastfail %.0f rejected %.0f",
			r.Correlated.FastFailed, r.Correlated.RejectedUsers)
	}
	if r.Correlated.ShedTicks == 0 {
		t.Error("correlated loss never held the admission shed ladder")
	}
	// Dispersed, the same server-minutes disappear into fleet headroom.
	if r.Dispersed.BreakerTrips != 0 {
		t.Errorf("dispersed trips %d, want 0", r.Dispersed.BreakerTrips)
	}
	if r.Dispersed.RejectedUsers != 0 || r.Dispersed.FastFailed != 0 {
		t.Errorf("dispersed crashes turned users away: rejected %.0f fastfail %.0f",
			r.Dispersed.RejectedUsers, r.Dispersed.FastFailed)
	}
	if r.Dispersed.GoodputFrac < 1-1e-9 {
		t.Errorf("dispersed goodput %.6f, want 1", r.Dispersed.GoodputFrac)
	}
	if r.Correlated.GoodputFrac >= r.Dispersed.GoodputFrac {
		t.Errorf("correlated goodput %.6f vs dispersed %.6f, want worse",
			r.Correlated.GoodputFrac, r.Dispersed.GoodputFrac)
	}
	// Repairs bring everything back.
	if r.Correlated.FinalActive != r.Servers || r.Dispersed.FinalActive != r.Servers {
		t.Errorf("final active %d/%d, want full fleet %d back",
			r.Correlated.FinalActive, r.Dispersed.FinalActive, r.Servers)
	}
}

func TestRetryExperimentsDeterminism(t *testing.T) {
	for _, id := range []string{"retry-storm", "fault-rack"} {
		a, err := Run(id, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.Report() != b.Report() {
			t.Errorf("same seed produced different %s reports", id)
		}
	}
}

// TestChaosSoakRetries layers the closed retry loop and the degrader's
// breaker hook over a randomized multi-fault program — rack failures,
// capacity dips, independent crashes — and asserts both the engine's
// physical-law invariants and the retry loop's conservation ledger hold
// all the way through.
func TestChaosSoakRetries(t *testing.T) {
	const (
		horizon = 12 * time.Hour
		dt      = time.Minute
	)
	srvCfg := server.DefaultConfig()
	for seed := int64(1); seed <= 3; seed++ {
		env := NewEnv(seed)
		e := env.NewEngine(seed)
		dc, err := outageFacility(e, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		fleet := dc.Fleet()
		n := fleet.Size()
		fleet.SetTarget(n)
		if err := e.Run(srvCfg.BootDelay + time.Second); err != nil {
			t.Fatal(err)
		}
		fleet.Dispatch(e.Now(), 0.8*float64(n)*srvCfg.Capacity)

		adm, err := retryExpAdmission()
		if err != nil {
			t.Fatal(err)
		}
		rcfg := retryExpConfig(workload.RetryBudget)
		rcfg.Breaker = workload.DefaultBreakerConfig()
		rl, err := workload.NewRetryLoop(rcfg, adm, e.RNG().Fork("retry"))
		if err != nil {
			t.Fatal(err)
		}
		deg, err := core.NewDegrader(e, dc, core.DegraderConfig{})
		if err != nil {
			t.Fatal(err)
		}
		deg.SetRetry(rl)
		deg.Start()

		in := fault.NewInjector(e)
		in.WireServers(fleet.Servers())
		perRack := n / 4
		domains := make([][]int, 4)
		for r := range domains {
			for i := 0; i < perRack; i++ {
				domains[r] = append(domains[r], r*perRack+i)
			}
		}
		if err := in.WireDomains(domains); err != nil {
			t.Fatal(err)
		}
		in.Subscribe(deg.OnNotice)
		events, err := fault.GenerateSchedule(e.RNG().Fork("chaos"), fault.ScheduleConfig{
			Horizon:    horizon,
			CrashEvery: time.Hour, CrashFor: 30 * time.Minute,
			RackEvery: 3 * time.Hour, RackFor: 20 * time.Minute,
			DipEvery: 4 * time.Hour, DipFor: 15 * time.Minute,
			Servers: n,
			Racks:   len(domains),
			DipFrac: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Arm(events); err != nil {
			t.Fatal(err)
		}

		st := workload.DefaultRequestClasses()[workload.ClassInteractive].ServiceTime
		demandErl := 0.8 * float64(n)
		var tickErr error
		e.Every(dt, func(eng *sim.Engine) {
			if tickErr != nil {
				return
			}
			cap := float64(fleet.ActiveCount()) * (1 - in.ActiveDip())
			var fresh [workload.NumClasses]float64
			fresh[workload.ClassInteractive] = workload.UsersPerTick(demandErl/st.Seconds(), dt)
			rl.Tick(dt, &fresh, cap)
			tickErr = rl.CheckInvariants(eng.Now())
		})
		if err := e.Run(horizon); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if tickErr != nil {
			t.Errorf("seed %d: retry ledger broken under chaos: %v", seed, tickErr)
		}
		if in.Injected() == 0 {
			t.Errorf("seed %d: chaos schedule injected nothing", seed)
		}
		if rl.FreshUsers() <= 0 {
			t.Errorf("seed %d: no traffic flowed", seed)
		}
		if err := env.InvariantErr(); err != nil {
			t.Errorf("seed %d: invariant violated under chaos: %v", seed, err)
		}
	}
}
