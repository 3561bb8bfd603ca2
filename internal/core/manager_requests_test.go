package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// requestsConfig builds a manager config with request-level admission
// control in front of dispatch. interactiveRate is users/second.
func requestsConfig(t *testing.T, mode PolicyMode, fleet, initial int) (ManagerConfig, *workload.Admission) {
	t.Helper()
	adm, err := workload.NewAdmission(workload.DefaultAdmissionConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pathologyConfig(mode)
	cfg.FleetSize = fleet
	cfg.InitialOn = initial
	cfg.Trigger.Max = fleet
	cfg.Admission = adm
	cfg.ClassDemand = func(now time.Duration) [workload.NumClasses]float64 {
		// 1000 interactive users/s ≈ 20 server-equivalents at the
		// default 20 ms service time, plus light batch/background.
		return [workload.NumClasses]float64{
			workload.ClassInteractive: workload.UsersPerTick(1000, time.Minute),
			workload.ClassBatch:       workload.UsersPerTick(40, time.Minute),
			workload.ClassBackground:  workload.UsersPerTick(100, time.Minute),
		}
	}
	return cfg, adm
}

func TestManagerAdmissionConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	cfg, _ := requestsConfig(t, ModeAlwaysOn, 40, 40)
	cfg.ClassDemand = nil
	if _, err := NewManager(e, cfg, nil); err == nil {
		t.Error("admission without class demand should error")
	}
	cfg2 := pathologyConfig(ModeAlwaysOn)
	cfg2.ClassDemand = func(time.Duration) [workload.NumClasses]float64 { return [workload.NumClasses]float64{} }
	if _, err := NewManager(e, cfg2, nil); err == nil {
		t.Error("class demand without admission should error")
	}
	// With admission wired, the aggregate demand function may be nil.
	cfg3, _ := requestsConfig(t, ModeAlwaysOn, 40, 40)
	if _, err := NewManager(sim.NewEngine(1), cfg3, nil); err != nil {
		t.Errorf("admission-driven manager rejected: %v", err)
	}
}

func TestManagerAdmissionAmpleFleet(t *testing.T) {
	e := sim.NewEngine(1)
	cfg, adm := requestsConfig(t, ModeAlwaysOn, 40, 40)
	m, err := NewManager(e, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := e.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	res := m.Result(e.Now())
	if res.Users == nil {
		t.Fatal("admission run reported no user outcomes")
	}
	u := res.Users
	if u.Offered <= 0 || u.Admitted <= 0 {
		t.Fatalf("no users flowed: %+v", u)
	}
	got := u.Admitted + u.Rejected + u.DeferredBacklog
	if math.Abs(got-u.Offered) > 1e-6*u.Offered {
		t.Errorf("user conservation broken: admitted %v + rejected %v + backlog %v != offered %v",
			u.Admitted, u.Rejected, u.DeferredBacklog, u.Offered)
	}
	// Boot delay makes the first ticks capacity-less, so some early
	// rejection is physical; once the fleet is up everyone gets in.
	if last := m.LastOutcome(); last.Q != 1 {
		t.Errorf("steady-state Q = %v, want 1 with an ample fleet", last.Q)
	}
	if frac := u.Rejected / u.Offered; frac > 0.15 {
		t.Errorf("rejected fraction %v too high for an ample fleet", frac)
	}
	if m.Admission() != adm {
		t.Error("Admission() accessor lost the controller")
	}
}

func TestManagerAdmissionCrunchRejectsAndDegrades(t *testing.T) {
	e := sim.NewEngine(1)
	cfg, _ := requestsConfig(t, ModeAlwaysOn, 5, 5)
	m, err := NewManager(e, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := e.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	res := m.Result(e.Now())
	u := res.Users
	if u == nil {
		t.Fatal("no user outcomes")
	}
	// ~20 server-equivalents offered against 5 servers: the fair share
	// floor must shed users and mark the admitted remainder degraded.
	if u.Rejected <= 0 {
		t.Errorf("rejected = %v, want positive under 4x overload", u.Rejected)
	}
	if u.Degraded <= 0 {
		t.Errorf("degraded = %v, want positive at Q < 1", u.Degraded)
	}
	last := m.LastOutcome()
	if last.Q >= 1 {
		t.Errorf("steady-state Q = %v, want < 1 under overload", last.Q)
	}
	if last.Q < m.Admission().Config().Qmin-1e-9 {
		t.Errorf("Q = %v fell below the Qmin floor %v", last.Q, m.Admission().Config().Qmin)
	}
	got := u.Admitted + u.Rejected + u.DeferredBacklog
	if math.Abs(got-u.Offered) > 1e-6*u.Offered {
		t.Errorf("user conservation broken under crunch: %+v", u)
	}
}

func TestManagerAdmissionCoordinatedGrowsOutOfRejection(t *testing.T) {
	// The coordinated planner must size the fleet for the pre-admission
	// demand (what users wanted), not the post-admission trickle — else
	// a capacity crunch is self-sustaining.
	e := sim.NewEngine(1)
	cfg, adm := requestsConfig(t, ModeCoordinated, 40, 2)
	m, err := NewManager(e, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	last := m.LastOutcome()
	if last.Q != 1 {
		t.Errorf("steady-state Q = %v, want 1 once the planner catches up", last.Q)
	}
	for c := 0; c < workload.NumClasses; c++ {
		if last.Rejected[c] > 0 {
			t.Errorf("class %s still rejecting %v users/tick at steady state",
				workload.Class(c), last.Rejected[c])
		}
	}
	if active := m.Fleet().ActiveCount(); active < 20 {
		t.Errorf("fleet grew to only %d active servers, want >= 20 for ~20 erl of demand", active)
	}
	// Early rejection happened (tiny initial fleet), so totals record it.
	if adm.RejectedUsers() <= 0 {
		t.Error("expected startup rejections with a 2-server initial fleet")
	}
}

func TestDegraderSyncsAdmissionShedLevel(t *testing.T) {
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
	// The default retry config has no breaker, so only the degradation
	// state moves the linked admission's shed level.
	rl, err := workload.NewRetryLoop(workload.DefaultRetryConfig(workload.RetryBackoff), adm, e.RNG().Fork("retry"))
	if err != nil {
		t.Fatal(err)
	}
	d.SetRetry(rl)
	if adm.ShedLevel() != 0 {
		t.Fatalf("initial shed level = %d, want 0", adm.ShedLevel())
	}

	// Feed redundancy lost: emergency caps map to ladder level 1
	// (degrade best-effort traffic).
	d.OnNotice(e, fault.Notice{Kind: fault.UtilityOutage, At: e.Now(), Start: true, Index: -1})
	if got := adm.ShedLevel(); got != 1 {
		t.Errorf("shed level under emergency caps = %d, want 1", got)
	}

	// UPS depleted: survival mode keeps only interactive traffic.
	d.OnNotice(e, fault.Notice{Kind: fault.UPSDepleted, At: e.Now(), Start: true, Index: -1})
	if got := adm.ShedLevel(); got != workload.MaxShedLevel {
		t.Errorf("shed level in survival mode = %d, want %d", got, workload.MaxShedLevel)
	}

	// Recovery unwinds: UPS back, then feed back.
	d.OnNotice(e, fault.Notice{Kind: fault.UPSDepleted, At: e.Now(), Start: false, Index: -1})
	if got := adm.ShedLevel(); got != 1 {
		t.Errorf("shed level after UPS recovery = %d, want 1 (caps still on)", got)
	}
	d.OnNotice(e, fault.Notice{Kind: fault.UtilityOutage, At: e.Now(), Start: false, Index: -1})
	if got := adm.ShedLevel(); got != 0 {
		t.Errorf("shed level after full recovery = %d, want 0", got)
	}
	if d.AdmissionShedLevel() != 0 {
		t.Errorf("AdmissionShedLevel = %d, want 0", d.AdmissionShedLevel())
	}

	// Unlinking the retry loop unlinks its admission controller too.
	d.SetRetry(nil)
	d.OnNotice(e, fault.Notice{Kind: fault.UtilityOutage, At: e.Now(), Start: true, Index: -1})
	if got := adm.ShedLevel(); got != 0 {
		t.Errorf("unlinked admission moved to shed level %d, want 0", got)
	}
}
