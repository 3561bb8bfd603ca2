package serve

import (
	"bufio"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/onoff"
	"repro/internal/workload"
)

// retryTestServer builds the shared test facility managed through the
// closed-loop retry controller.
func retryTestServer(t *testing.T) (*Server, *workload.RetryLoop) {
	t.Helper()
	e, _, dc := testFacility(t, 1, 10)
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
		Retry:          rl,
		ClassDemand: func(now time.Duration) [workload.NumClasses]float64 {
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
	return s, rl
}

func TestServeRetrySnapshotAndMetrics(t *testing.T) {
	s, rl := retryTestServer(t)
	if err := s.AdvanceTo(30 * time.Minute); err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	u := snap.Users
	if u == nil || u.Retry == nil {
		t.Fatalf("snapshot has no retry section despite a retry loop: %+v", u)
	}
	rt := u.Retry
	if rt.FreshTotal <= 0 {
		t.Fatal("no fresh users flowed")
	}
	got := rt.GoodputTotal + rt.AbandonedTotal + rt.InRetry + u.DeferredBacklog
	if math.Abs(got-rt.FreshTotal) > 1e-6*rt.FreshTotal {
		t.Errorf("snapshot closed-loop conservation broken: %+v backlog %v", rt, u.DeferredBacklog)
	}
	if rt.Amplification < 1 {
		t.Errorf("amplification %v < 1", rt.Amplification)
	}
	if rt.BreakerState != rl.State().String() {
		t.Errorf("snapshot breaker %q != loop %q", rt.BreakerState, rl.State())
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	samples, body := scrape(t, ts.URL)
	for _, name := range []string{
		"dcsim_fresh_users_total",
		"dcsim_retried_users_total",
		"dcsim_abandoned_users_total",
		"dcsim_goodput_users_total",
		"dcsim_in_retry_users",
		"dcsim_retry_amplification",
		"dcsim_breaker_trips_total",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("exposition missing %s", name)
		}
	}
	// Breaker state is a one-hot gauge over all three states.
	hot := 0.0
	for _, st := range []string{"closed", "open", "half-open"} {
		marker := `dcsim_breaker_state{state="` + st + `"} `
		at := strings.Index(body, marker)
		if at < 0 {
			t.Fatalf("exposition missing breaker state %q", st)
		}
		val := body[at+len(marker):]
		if nl := strings.IndexByte(val, '\n'); nl >= 0 {
			val = val[:nl]
		}
		if val == "1" {
			hot++
		}
	}
	if hot != 1 {
		t.Errorf("breaker one-hot sum = %v, want exactly 1", hot)
	}
}

func TestServeRetryOmittedWithoutLoop(t *testing.T) {
	s, _ := userTestServer(t) // plain admission, no retry loop
	if err := s.AdvanceTo(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Users == nil {
		t.Fatal("users section missing")
	}
	if snap.Users.Retry != nil {
		t.Error("plain-admission run grew a retry section")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	samples, _ := scrape(t, ts.URL)
	if _, ok := samples["dcsim_retried_users_total"]; ok {
		t.Error("plain-admission exposition carries retry metrics")
	}
}

func TestServerShutdownClosesStreams(t *testing.T) {
	s, _ := testServer(t, 1, 5, Options{Speedup: 3600})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/v1/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the initial snapshot event, then shut down and expect one
	// final "event: shutdown" frame followed by EOF.
	sc := bufio.NewScanner(resp.Body)
	ready := make(chan struct{}, 1)
	shutdownSeen := make(chan bool, 1)
	go func() {
		gotShutdown := false
		for sc.Scan() {
			switch sc.Text() {
			case "event: snapshot":
				select {
				case ready <- struct{}{}:
				default:
				}
			case "event: shutdown":
				gotShutdown = true
			}
		}
		shutdownSeen <- gotShutdown
	}()

	select {
	case <-ready:
	case <-ctx.Done():
		t.Fatal("no initial SSE event before shutdown")
	}
	s.Shutdown()
	s.Shutdown() // idempotent
	select {
	case got := <-shutdownSeen:
		if !got {
			t.Error("stream ended without a final shutdown event")
		}
	case <-ctx.Done():
		t.Fatal("stream did not end after Shutdown")
	}

	// Streams opened after shutdown end immediately (after the initial
	// snapshot), and scrapes still answer.
	resp2, err := http.Get(ts.URL + "/api/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp2.Body); err != nil {
		t.Errorf("post-shutdown stream read: %v", err)
	}
	resp2.Body.Close()
	resp3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if err := Lint(body); err != nil {
		t.Errorf("post-shutdown scrape fails lint: %v", err)
	}
}
