package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func newTestRetry(t testing.TB, policy RetryPolicy, mutate ...func(*RetryConfig)) *RetryLoop {
	t.Helper()
	cfg := DefaultRetryConfig(policy)
	cfg.SLORetryFrac = 0
	for _, m := range mutate {
		m(&cfg)
	}
	adm, err := NewAdmission(DefaultAdmissionConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRetryLoop(cfg, adm, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// retryTickConserves asserts the closed-loop per-tick partition:
// fresh + retried + replayed backlog == admitted + deferred +
// (to-retry − slo-retried) + abandoned, with no negative or NaN counts.
func retryTickConserves(t *testing.T, out RetryOutcome) {
	t.Helper()
	for c := 0; c < NumClasses; c++ {
		for _, v := range []float64{
			out.Fresh[c], out.Retried[c], out.FastFailed[c],
			out.ToRetry[c], out.Abandoned[c], out.SLORetried[c],
		} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("class %s: invalid count %v in %+v", Class(c), v, out)
			}
		}
		handed := out.Fresh[c] + out.Retried[c] - out.FastFailed[c]
		replay := out.Pool.Offered[c] - handed
		in := out.Fresh[c] + out.Retried[c] + replay
		outSum := out.Pool.Admitted[c] + out.Pool.Deferred[c] +
			(out.ToRetry[c] - out.SLORetried[c]) + out.Abandoned[c]
		tol := 1e-6 * math.Max(1, in)
		if math.Abs(in-outSum) > tol {
			t.Fatalf("class %s: closed-loop conservation broken: in %v != out %v (%+v)",
				Class(c), in, outSum, out)
		}
	}
}

func TestRetryConfigValidateAggregates(t *testing.T) {
	for _, p := range []RetryPolicy{RetryNaive, RetryBackoff, RetryBudget} {
		if err := DefaultRetryConfig(p).Validate(); err != nil {
			t.Errorf("default %v config invalid: %v", p, err)
		}
	}
	cfg := DefaultRetryConfig(RetryBudget)
	cfg.MaxAttempts = 0
	cfg.JitterFrac = 2
	cfg.BudgetRatio = -1
	cfg.MaxInRetry = 0
	err := cfg.Validate()
	if err == nil {
		t.Fatal("bad config accepted")
	}
	if n := strings.Count(err.Error(), "\n  - "); n != 4 {
		t.Errorf("aggregated error lists %d problems, want 4:\n%v", n, err)
	}
	cfg = DefaultRetryConfig(RetryNaive)
	cfg.Breaker = DefaultBreakerConfig()
	cfg.Breaker.Window = maxBreakerWindow + 1
	cfg.Breaker.TripRatio = 0
	if err := cfg.Validate(); err == nil || strings.Count(err.Error(), "\n  - ") != 2 {
		t.Errorf("breaker violations not aggregated: %v", err)
	}
}

func TestAdmissionConfigValidateAggregates(t *testing.T) {
	cfg := DefaultAdmissionConfig()
	cfg.Qmin = 0
	cfg.MaxBacklog = -1
	cfg.Classes[ClassBatch].ServiceTime = 0
	cfg.Classes[ClassBatch].DegradeCost = 2
	err := cfg.Validate()
	if err == nil {
		t.Fatal("bad config accepted")
	}
	if n := strings.Count(err.Error(), "\n  - "); n != 4 {
		t.Errorf("aggregated error lists %d problems, want 4:\n%v", n, err)
	}
	if !strings.Contains(err.Error(), "batch: ") {
		t.Errorf("class violations not attributed:\n%v", err)
	}
}

func TestRetryNaiveRetriesNextTick(t *testing.T) {
	r := newTestRetry(t, RetryNaive)
	fresh := [NumClasses]float64{1000, 0, 0}
	out := r.Tick(admDT, &fresh, 0) // zero capacity: all rejected
	retryTickConserves(t, out)
	if out.ToRetry[ClassInteractive] != 1000 {
		t.Fatalf("to-retry = %v, want 1000", out.ToRetry[ClassInteractive])
	}
	if r.InRetry(ClassInteractive) != 1000 {
		t.Fatalf("in-retry = %v, want 1000", r.InRetry(ClassInteractive))
	}
	var none [NumClasses]float64
	out = r.Tick(admDT, &none, 0)
	retryTickConserves(t, out)
	if out.Retried[ClassInteractive] != 1000 {
		t.Errorf("naive retry did not come back next tick: retried %v", out.Retried[ClassInteractive])
	}
	// Ample capacity: the whole cohort lands and the queue empties.
	out = r.Tick(admDT, &none, 1000)
	retryTickConserves(t, out)
	if out.Pool.Admitted[ClassInteractive] != 1000 {
		t.Errorf("recovered retry not admitted: %v", out.Pool.Admitted[ClassInteractive])
	}
	if r.InRetryTotal() != 0 {
		t.Errorf("queue not drained: %v", r.InRetryTotal())
	}
	if got := r.RetryAmplification(); math.Abs(got-3) > 1e-9 {
		t.Errorf("amplification = %v, want 3 (1000 fresh, 2000 retries)", got)
	}
}

func TestRetryBackoffDelaysGrow(t *testing.T) {
	r := newTestRetry(t, RetryBackoff, func(c *RetryConfig) {
		c.JitterFrac = 0
		c.BaseDelay = 2 * admDT
		c.MaxDelay = 8 * admDT
	})
	fresh := [NumClasses]float64{1000, 0, 0}
	var none [NumClasses]float64
	r.Tick(admDT, &fresh, 0)
	// First retry after BaseDelay = 2 ticks, second after 4 ticks.
	gaps := []int{2, 4}
	tick := 0
	for _, want := range gaps {
		for i := 1; i <= want; i++ {
			tick++
			out := r.Tick(admDT, &none, 0)
			retryTickConserves(t, out)
			got := out.Retried[ClassInteractive]
			if i < want && got != 0 {
				t.Fatalf("tick %d: early retry %v before %d-tick backoff", tick, got, want)
			}
			if i == want && got != 1000 {
				t.Fatalf("tick %d: retried %v, want 1000 after %d-tick backoff", tick, got, want)
			}
		}
	}
}

func TestRetryAbandonAfterMaxAttempts(t *testing.T) {
	r := newTestRetry(t, RetryNaive, func(c *RetryConfig) { c.MaxAttempts = 2 })
	fresh := [NumClasses]float64{500, 0, 0}
	var none [NumClasses]float64
	r.Tick(admDT, &fresh, 0)
	var abandoned float64
	for i := 0; i < 4; i++ {
		out := r.Tick(admDT, &none, 0)
		retryTickConserves(t, out)
		abandoned += out.Abandoned[ClassInteractive]
	}
	if r.InRetryTotal() != 0 {
		t.Errorf("queue still holds %v after attempts exhausted", r.InRetryTotal())
	}
	if math.Abs(abandoned-500) > 1e-9 || math.Abs(r.AbandonedUsers()-500) > 1e-9 {
		t.Errorf("abandoned %v (cumulative %v), want 500", abandoned, r.AbandonedUsers())
	}
	if err := r.CheckInvariants(0); err != nil {
		t.Error(err)
	}
}

func TestRetryBudgetThrottlesRetryRate(t *testing.T) {
	r := newTestRetry(t, RetryBudget, func(c *RetryConfig) {
		c.JitterFrac = 0
		c.BaseDelay = admDT
		c.MaxDelay = 4 * admDT
		c.BudgetRatio = 0.1
		c.BudgetBurst = 200
	})
	fresh := [NumClasses]float64{1000, 0, 0}
	for i := 0; i < 20; i++ {
		out := r.Tick(admDT, &fresh, 0)
		retryTickConserves(t, out)
		// Tokens accrue at 100/tick (capped at 200): the retry rate can
		// never exceed the burst even with thousands queued.
		if got := out.Retried[ClassInteractive]; got > 200+1e-9 {
			t.Fatalf("tick %d: retried %v exceeds token burst 200", i, got)
		}
	}
	if r.InRetryTotal() == 0 {
		t.Error("budget should be deferring a backlog of retries")
	}
	if err := r.CheckInvariants(0); err != nil {
		t.Error(err)
	}
}

func TestRetrySLOMissReenqueues(t *testing.T) {
	r := newTestRetry(t, RetryNaive, func(c *RetryConfig) { c.SLORetryFrac = 0.1 })
	// 20 erl of interactive on 11 servers: admitted but the wait blows
	// the 40 ms SLO (same operating point as TestAdmissionSLOMiss).
	r.Admission().SetShedLevel(0)
	fresh := [NumClasses]float64{60000, 0, 0}
	out := r.Tick(admDT, &fresh, 11)
	retryTickConserves(t, out)
	if !out.Pool.SLOMiss[ClassInteractive] {
		t.Fatalf("expected an SLO miss: %v admitted on %v server-equivalents", out.Pool.Admitted[ClassInteractive], out.Pool.CapacityErl)
	}
	want := out.Pool.Admitted[ClassInteractive] * 0.1
	if math.Abs(out.SLORetried[ClassInteractive]-want) > 1e-9 {
		t.Errorf("SLO-retried %v, want %v", out.SLORetried[ClassInteractive], want)
	}
	if out.GoodputUsers >= out.Pool.Admitted[ClassInteractive] {
		t.Errorf("goodput %v should exclude the SLO-retried slice of admitted %v",
			out.GoodputUsers, out.Pool.Admitted[ClassInteractive])
	}
	if err := r.CheckInvariants(0); err != nil {
		t.Error(err)
	}
}

func TestRetryBreakerTripsAndRecovers(t *testing.T) {
	r := newTestRetry(t, RetryNaive, func(c *RetryConfig) {
		c.Breaker = BreakerConfig{
			Enabled: true, Window: 5, TripRatio: 0.5, MinVolume: 1,
			OpenTicks: 3, ProbeFrac: 0.5, RecoverTicks: 2,
		}
	})
	fresh := [NumClasses]float64{1000, 0, 0}
	out := r.Tick(admDT, &fresh, 0) // total rejection trips immediately
	if out.Breaker != BreakerOpen {
		t.Fatalf("breaker %v after total rejection, want open", out.Breaker)
	}
	if r.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", r.Trips())
	}
	// Open: arrivals fast-fail without reaching the pool.
	for i := 0; i < 3; i++ {
		out = r.Tick(admDT, &fresh, 1000)
		retryTickConserves(t, out)
		if i < 2 && out.Breaker != BreakerOpen {
			t.Fatalf("open tick %d: breaker %v", i, out.Breaker)
		}
		if want := out.Fresh[ClassInteractive] + out.Retried[ClassInteractive]; out.FastFailed[ClassInteractive] != want {
			t.Fatalf("open tick %d: fast-failed %v, want all %v arrivals", i, out.FastFailed[ClassInteractive], want)
		}
	}
	if out.Breaker != BreakerHalfOpen {
		t.Fatalf("breaker %v after OpenTicks, want half-open", out.Breaker)
	}
	// Half-open probes against ample capacity: healthy ticks close it.
	out = r.Tick(admDT, &fresh, 1000)
	if out.Breaker != BreakerHalfOpen {
		t.Fatalf("breaker %v after one healthy probe, want half-open (hysteresis)", out.Breaker)
	}
	if out.FastFailed[ClassInteractive] <= 0 || out.Pool.Admitted[ClassInteractive] <= 0 {
		t.Fatalf("half-open should split arrivals: fast-failed %v admitted %v",
			out.FastFailed[ClassInteractive], out.Pool.Admitted[ClassInteractive])
	}
	out = r.Tick(admDT, &fresh, 1000)
	if out.Breaker != BreakerClosed {
		t.Fatalf("breaker %v after RecoverTicks healthy probes, want closed", out.Breaker)
	}
	// A bad probe re-opens: trip again, wait out OpenTicks, then crunch.
	r.Trip()
	if r.State() != BreakerOpen || r.Trips() != 2 {
		t.Fatalf("forced trip: state %v trips %d", r.State(), r.Trips())
	}
	for i := 0; i < 3; i++ {
		r.Tick(admDT, &fresh, 1000)
	}
	if r.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", r.State())
	}
	out = r.Tick(admDT, &fresh, 0) // probe fails
	if out.Breaker != BreakerOpen {
		t.Errorf("failed probe left breaker %v, want open", out.Breaker)
	}
}

func TestRetryWasteFeedbackLagsOneTick(t *testing.T) {
	r := newTestRetry(t, RetryNaive, func(c *RetryConfig) { c.RejectCostFrac = 0.5 })
	fresh := [NumClasses]float64{60000, 0, 0} // 20 erl demand
	out := r.Tick(admDT, &fresh, 5)           // Qmin sheds half the demand
	if out.WastedErl != 0 {
		t.Errorf("first tick wasted %v, want 0 (cost lags one tick)", out.WastedErl)
	}
	rejected := out.Pool.Rejected[ClassInteractive]
	if rejected <= 0 {
		t.Fatalf("scenario bug: no rejections (out %+v)", out)
	}
	out = r.Tick(admDT, &fresh, 5)
	wantWaste := rejected * 0.5 * (20 * time.Millisecond).Seconds() / admDT.Seconds()
	if math.Abs(out.WastedErl-wantWaste) > 1e-9*math.Max(1, wantWaste) {
		t.Errorf("wasted %v erl, want %v from %v rejections", out.WastedErl, wantWaste, rejected)
	}
	if out.EffectiveCapacityErl != 5-out.WastedErl {
		t.Errorf("effective capacity %v, want %v", out.EffectiveCapacityErl, 5-out.WastedErl)
	}
}

func TestRetryRingMatchesInRetry(t *testing.T) {
	r := newTestRetry(t, RetryBackoff)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		fresh := [NumClasses]float64{rng.Float64() * 50000, rng.Float64() * 10000, rng.Float64() * 5000}
		out := r.Tick(admDT, &fresh, rng.Float64()*30)
		retryTickConserves(t, out)
	}
	var ringSum [NumClasses]float64
	for i := range r.ring {
		for c := 0; c < NumClasses; c++ {
			for a := 0; a < MaxRetryAttempts; a++ {
				ringSum[c] += r.ring[i][c][a]
			}
		}
	}
	for c := 0; c < NumClasses; c++ {
		tol := 1e-6 * math.Max(1, r.inRetry[c])
		if math.Abs(ringSum[c]-r.inRetry[c]) > tol {
			t.Errorf("class %s: ring holds %v but in-retry counter says %v", Class(c), ringSum[c], r.inRetry[c])
		}
	}
}

func TestRetryConservationRandomized(t *testing.T) {
	for _, policy := range []RetryPolicy{RetryNaive, RetryBackoff, RetryBudget} {
		r := newTestRetry(t, policy, func(c *RetryConfig) {
			c.SLORetryFrac = 0.05
			c.Breaker = DefaultBreakerConfig()
		})
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 500; i++ {
			fresh := [NumClasses]float64{rng.Float64() * 50000, rng.Float64() * 10000, rng.Float64() * 5000}
			capErl := rng.Float64() * 40
			if rng.Intn(5) == 0 {
				capErl = 0 // hard dips exercise the breaker
			}
			out := r.Tick(admDT, &fresh, capErl)
			retryTickConserves(t, out)
			if err := r.CheckInvariants(time.Duration(i) * admDT); err != nil {
				t.Fatalf("%v tick %d: %v", policy, i, err)
			}
		}
		if r.Ticks() != 500 {
			t.Errorf("%v: ticks %d, want 500", policy, r.Ticks())
		}
	}
}

func TestRetryTickAllocFree(t *testing.T) {
	r := newTestRetry(t, RetryBudget, func(c *RetryConfig) { c.Breaker = DefaultBreakerConfig() })
	fresh := [NumClasses]float64{40000, 8000, 4000}
	for i := 0; i < 100; i++ { // warm into a mixed retry/defer steady state
		capErl := 20.0
		if i%7 == 0 {
			capErl = 2
		}
		r.Tick(admDT, &fresh, capErl)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		capErl := 20.0
		if i%7 == 0 {
			capErl = 2
		}
		i++
		r.Tick(admDT, &fresh, capErl)
	})
	if allocs != 0 {
		t.Errorf("retry tick allocates %v/op, want 0", allocs)
	}
}

func TestRetryTickPanicsOnBadDT(t *testing.T) {
	r := newTestRetry(t, RetryNaive)
	defer func() {
		if recover() == nil {
			t.Error("no panic on dt = 0")
		}
	}()
	var fresh [NumClasses]float64
	r.Tick(0, &fresh, 10)
}

func TestNewRetryLoopRejectsBadArgs(t *testing.T) {
	adm, err := NewAdmission(DefaultAdmissionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRetryLoop(DefaultRetryConfig(RetryNaive), nil, sim.NewRNG(1)); err == nil {
		t.Error("nil admission accepted")
	}
	cfg := DefaultRetryConfig(RetryBackoff) // jitter 0.2 needs an RNG
	if _, err := NewRetryLoop(cfg, adm, nil); err == nil {
		t.Error("jitter without RNG accepted")
	}
	cfg.JitterFrac = 0
	if _, err := NewRetryLoop(cfg, adm, nil); err != nil {
		t.Errorf("jitter-free loop without RNG rejected: %v", err)
	}
}
