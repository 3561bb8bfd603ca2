package serve

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/onoff"
	"repro/internal/workload"
)

// userTestServer builds the shared test facility but manages it with a
// request-level admission controller in front of dispatch.
func userTestServer(t *testing.T) (*Server, *workload.Admission) {
	t.Helper()
	e, _, dc := testFacility(t, 1, 10)
	adm, err := workload.NewAdmission(workload.DefaultAdmissionConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := dc.Fleet().Size()
	srvCfg := dc.Fleet().Servers()[0].Config()
	sla := 100 * time.Millisecond
	mgr, err := core.NewManagerForFleet(e, core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      n,
		Queue:          workload.DefaultQueueModel(),
		SLA:            sla,
		DecisionPeriod: time.Minute,
		Mode:           core.ModeCoordinated,
		Trigger:        onoff.DelayTrigger{High: sla * 6 / 10, Low: sla / 4, StepUp: 1, StepDown: 1, Min: 1, Max: n},
		InitialOn:      n / 2,
		Admission:      adm,
		ClassDemand: func(now time.Duration) [workload.NumClasses]float64 {
			// ~3 server-equivalents of interactive plus light batch.
			return [workload.NumClasses]float64{
				workload.ClassInteractive: workload.UsersPerTick(150, time.Minute),
				workload.ClassBatch:       workload.UsersPerTick(10, time.Minute),
				workload.ClassBackground:  workload.UsersPerTick(20, time.Minute),
			}
		},
	}, dc.Fleet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	s, err := NewServer(Source{Engine: e, Fleet: dc.Fleet(), Manager: mgr, DC: dc}, Options{Speedup: 3600})
	if err != nil {
		t.Fatal(err)
	}
	return s, adm
}

func TestServeUserOutcomes(t *testing.T) {
	s, adm := userTestServer(t)
	if err := s.AdvanceTo(30 * time.Minute); err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	u := snap.Users
	if u == nil {
		t.Fatal("snapshot has no users section despite admission control")
	}
	if u.OfferedTotal <= 0 || u.AdmittedTotal <= 0 {
		t.Fatalf("no users flowed: %+v", u)
	}
	got := u.AdmittedTotal + u.RejectedTotal + u.DeferredBacklog
	if math.Abs(got-u.OfferedTotal) > 1e-6*u.OfferedTotal {
		t.Errorf("snapshot user conservation broken: %+v", u)
	}
	if len(u.Classes) != workload.NumClasses {
		t.Fatalf("classes = %d, want %d", len(u.Classes), workload.NumClasses)
	}
	if u.Classes[workload.ClassInteractive].Class != "interactive" {
		t.Errorf("class name = %q", u.Classes[workload.ClassInteractive].Class)
	}
	if u.FairShareQ != adm.Q() {
		t.Errorf("snapshot Q %v != controller Q %v", u.FairShareQ, adm.Q())
	}

	// The exposition carries the user-outcome families (scrape lints).
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	samples, body := scrape(t, ts.URL)
	for _, name := range []string{
		"dcsim_offered_users_total",
		"dcsim_admitted_users_total",
		"dcsim_rejected_users_total",
		"dcsim_degraded_users_total",
		"dcsim_deferred_users",
		"dcsim_fair_share_q",
		"dcsim_user_shed_level",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("exposition missing %s", name)
		}
	}
	if samples["dcsim_admitted_users_total"] <= 0 {
		t.Error("admitted users counter is zero")
	}
	for _, cl := range []string{"interactive", "batch", "background"} {
		if !strings.Contains(body, `dcsim_slo_miss_ratio{class="`+cl+`"}`) {
			t.Errorf("exposition missing SLO-miss gauge for class %s", cl)
		}
		if !strings.Contains(body, `dcsim_class_admitted_users_total{class="`+cl+`"}`) {
			t.Errorf("exposition missing per-class admitted counter for %s", cl)
		}
	}
}

func TestServeUsersOmittedWithoutAdmission(t *testing.T) {
	s, _ := testServer(t, 1, 10, Options{Speedup: 3600})
	if err := s.AdvanceTo(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.Users != nil {
		t.Error("fluid-only run grew a users section")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	samples, _ := scrape(t, ts.URL)
	if _, ok := samples["dcsim_rejected_users_total"]; ok {
		t.Error("fluid-only exposition carries user metrics")
	}
}
