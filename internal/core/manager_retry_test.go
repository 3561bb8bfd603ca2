package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// retryConfig builds a manager config with the closed-loop retry
// controller in front of dispatch.
func retryConfig(t *testing.T, e *sim.Engine, mode PolicyMode, fleet, initial int, policy workload.RetryPolicy, breaker bool) (ManagerConfig, *workload.RetryLoop) {
	t.Helper()
	adm, err := workload.NewAdmission(workload.DefaultAdmissionConfig())
	if err != nil {
		t.Fatal(err)
	}
	rcfg := workload.DefaultRetryConfig(policy)
	rcfg.SLORetryFrac = 0 // steady-state SLO churn is covered in workload tests
	if breaker {
		rcfg.Breaker = workload.DefaultBreakerConfig()
	}
	rl, err := workload.NewRetryLoop(rcfg, adm, e.RNG().Fork("retry"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := pathologyConfig(mode)
	cfg.FleetSize = fleet
	cfg.InitialOn = initial
	cfg.Trigger.Max = fleet
	cfg.Retry = rl
	cfg.ClassDemand = func(now time.Duration) [workload.NumClasses]float64 {
		return [workload.NumClasses]float64{
			workload.ClassInteractive: workload.UsersPerTick(1000, time.Minute),
			workload.ClassBatch:       workload.UsersPerTick(40, time.Minute),
			workload.ClassBackground:  workload.UsersPerTick(100, time.Minute),
		}
	}
	return cfg, rl
}

func TestManagerRetryConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	cfg, rl := retryConfig(t, e, ModeAlwaysOn, 40, 40, workload.RetryBackoff, false)
	cfg.Admission = rl.Admission() // both knobs set: ambiguous
	if _, err := NewManager(e, cfg, nil); err == nil {
		t.Error("Retry together with Admission should error")
	}
	cfg.Admission = nil
	cfg.ClassDemand = nil
	if _, err := NewManager(e, cfg, nil); err == nil {
		t.Error("Retry without class demand should error")
	}
	cfg2, _ := retryConfig(t, sim.NewEngine(1), ModeAlwaysOn, 40, 40, workload.RetryBackoff, false)
	if _, err := NewManager(sim.NewEngine(1), cfg2, nil); err != nil {
		t.Errorf("retry-driven manager rejected: %v", err)
	}
}

func TestManagerRetryClosedLoopOutcomes(t *testing.T) {
	e := sim.NewEngine(1)
	cfg, rl := retryConfig(t, e, ModeAlwaysOn, 40, 40, workload.RetryBackoff, true)
	m, err := NewManager(e, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Retry() != rl || m.Admission() != rl.Admission() {
		t.Fatal("accessors lost the closed-loop controller")
	}
	m.Start()
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	res := m.Result(e.Now())
	u := res.Users
	if u == nil {
		t.Fatal("closed-loop run reported no user outcomes")
	}
	if u.Goodput <= 0 || u.Goodput > u.Admitted {
		t.Errorf("goodput %v out of (0, admitted %v]", u.Goodput, u.Admitted)
	}
	if u.RetryAmplification < 1 {
		t.Errorf("amplification %v < 1", u.RetryAmplification)
	}
	// Boot delay rejects the first ticks (and trips the breaker), so
	// the closed loop must have seen retries; with 40 servers against
	// ~38 erl the storm stays a startup transient.
	if u.Retried <= 0 {
		t.Error("expected startup rejections to re-enter as retries")
	}
	if last := m.LastRetryOutcome(); last.Breaker != workload.BreakerClosed {
		t.Errorf("steady-state breaker %v, want closed", last.Breaker)
	}
	if frac := u.Abandoned / u.Fresh; frac > 0.1 {
		t.Errorf("abandoned fraction %v too high for an ample fleet", frac)
	}
}

func TestManagerRetryCoordinatedPlansOnInflatedDemand(t *testing.T) {
	// The planner must see fresh + retried + fast-failed demand, or a
	// small initial fleet stays trapped under its own retry storm.
	e := sim.NewEngine(1)
	cfg, rl := retryConfig(t, e, ModeCoordinated, 40, 2, workload.RetryNaive, false)
	m, err := NewManager(e, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	last := m.LastOutcome()
	if last.Q != 1 {
		t.Errorf("steady-state Q = %v, want 1 once the planner catches up", last.Q)
	}
	if rl.InRetryTotal() > 1e-6 {
		t.Errorf("retry queue still holds %v users at steady state", rl.InRetryTotal())
	}
	if active := m.Fleet().ActiveCount(); active < 20 {
		t.Errorf("fleet grew to only %d active servers, want >= 20", active)
	}
}

func TestManagerCapacityDipScalesAdmissionView(t *testing.T) {
	e := sim.NewEngine(1)
	cfg, rl := retryConfig(t, e, ModeAlwaysOn, 40, 40, workload.RetryBackoff, true)
	m, err := NewManager(e, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.OnNotice(e, fault.Notice{Kind: fault.CapacityDip, At: 0, Start: true, Index: -1, Frac: 0.75})
	if got := m.CapacityFactor(); got != 0.25 {
		t.Fatalf("capacity factor %v under a 75%% dip, want 0.25", got)
	}
	m.Start()
	if err := e.Run(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// 40 active servers scaled to 10 effective against ~24 erl: the
	// admission layer must be rejecting even though the fleet is up.
	if rl.Admission().RejectedUsers() <= 0 {
		t.Error("no rejections under a deep capacity dip")
	}
	// The rejection wave trips the breaker, which then fast-fails
	// arrivals before the pool sees them — so the mid-dip signal is the
	// breaker state, not pool fair share.
	if st := m.LastRetryOutcome().Breaker; st == workload.BreakerClosed {
		t.Error("breaker still closed mid-dip, want it open")
	}
	m.OnNotice(e, fault.Notice{Kind: fault.CapacityDip, At: e.Now(), Start: false, Index: -1, Frac: 0.75})
	if got := m.CapacityFactor(); got != 1 {
		t.Fatalf("capacity factor %v after revert, want 1", got)
	}
	// Without the breaker this storm is metastable: retry-inflated
	// demand plus rejection waste holds the pool under water long after
	// the dip reverts. The breaker fast-fails the backlog dry, so the
	// loop must settle back to Q == 1 within the recovery window.
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if q := m.LastOutcome().Q; q != 1 {
		t.Errorf("fair share Q = %v after the dip cleared, want 1", q)
	}
	if err := rl.CheckInvariants(e.Now()); err != nil {
		t.Error(err)
	}
}

func TestDegraderTripsBreakerOnCorrelatedFaults(t *testing.T) {
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, smallDCConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDegrader(e, dc, DegraderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	adm, err := workload.NewAdmission(workload.DefaultAdmissionConfig())
	if err != nil {
		t.Fatal(err)
	}
	rcfg := workload.DefaultRetryConfig(workload.RetryBackoff)
	rcfg.Breaker = workload.DefaultBreakerConfig()
	rl, err := workload.NewRetryLoop(rcfg, adm, e.RNG().Fork("retry"))
	if err != nil {
		t.Fatal(err)
	}
	d.SetRetry(rl) // also links the wrapped admission
	if rl.State() != workload.BreakerClosed {
		t.Fatalf("initial breaker %v, want closed", rl.State())
	}
	d.OnNotice(e, fault.Notice{Kind: fault.RackFailure, At: 0, Start: true, Index: 0})
	if rl.State() != workload.BreakerOpen || rl.Trips() != 1 {
		t.Fatalf("rack failure left breaker %v (trips %d), want open", rl.State(), rl.Trips())
	}
	// Recovery hysteresis: while the breaker is not closed, the shed
	// ladder holds at >= 1 even though the thermal ladder is at 0.
	if got := d.AdmissionShedLevel(); got != 1 {
		t.Errorf("shed level %d while breaker open, want 1", got)
	}
	if got := adm.ShedLevel(); got != 1 {
		t.Errorf("linked admission shed level %d, want 1", got)
	}
	// Walk the breaker through open -> half-open -> closed with healthy
	// (idle) ticks; the shed hold must release only then.
	var none [workload.NumClasses]float64
	b := rcfg.Breaker
	for i := 0; i < b.OpenTicks+b.RecoverTicks; i++ {
		rl.Tick(time.Minute, &none, 100)
	}
	if rl.State() != workload.BreakerClosed {
		t.Fatalf("breaker %v after healthy recovery window, want closed", rl.State())
	}
	d.OnNotice(e, fault.Notice{Kind: fault.RackFailure, At: 0, Start: false, Index: 0})
	if got := adm.ShedLevel(); got != 0 {
		t.Errorf("shed level %d after breaker closed, want 0", got)
	}
	// A capacity dip trips too.
	d.OnNotice(e, fault.Notice{Kind: fault.CapacityDip, At: 0, Start: true, Index: -1, Frac: 0.5})
	if rl.State() != workload.BreakerOpen || rl.Trips() != 2 {
		t.Errorf("capacity dip left breaker %v (trips %d), want open", rl.State(), rl.Trips())
	}
}

func TestUserOutcomesRetryFieldsConserve(t *testing.T) {
	e := sim.NewEngine(1)
	cfg, _ := retryConfig(t, e, ModeAlwaysOn, 6, 6, workload.RetryNaive, false)
	m, err := NewManager(e, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	u := m.Result(e.Now()).Users
	if u == nil {
		t.Fatal("no user outcomes")
	}
	// Closed-loop ledger at run end: every fresh arrival completed,
	// abandoned, or still parked (retry queue or deferral backlog).
	got := u.Goodput + u.Abandoned + u.InRetry + u.DeferredBacklog
	if math.Abs(got-u.Fresh) > 1e-6*math.Max(1, u.Fresh) {
		t.Errorf("closed-loop conservation broken: goodput %v + abandoned %v + in-retry %v + backlog %v != fresh %v",
			u.Goodput, u.Abandoned, u.InRetry, u.DeferredBacklog, u.Fresh)
	}
	if u.Abandoned <= 0 {
		t.Error("6 servers against ~24 erl should abandon users")
	}
	if u.RetryAmplification <= 1 {
		t.Errorf("amplification %v, want > 1 under sustained overload", u.RetryAmplification)
	}
}
