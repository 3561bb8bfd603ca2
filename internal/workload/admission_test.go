package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/stats"
)

const admDT = time.Minute

func newTestAdmission(t testing.TB, mutate ...func(*AdmissionConfig)) *Admission {
	t.Helper()
	cfg := DefaultAdmissionConfig()
	for _, m := range mutate {
		m(&cfg)
	}
	a, err := NewAdmission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// tickConserves asserts the per-tick partition: admitted + rejected +
// deferred == offered, per class, and no negative or NaN counts.
func tickConserves(t *testing.T, out TickOutcome) {
	t.Helper()
	for c := 0; c < NumClasses; c++ {
		for _, v := range []float64{out.Offered[c], out.Admitted[c], out.Rejected[c], out.Deferred[c], out.Degraded[c]} {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("class %s: invalid count %v in %+v", Class(c), v, out)
			}
		}
		got := out.Admitted[c] + out.Rejected[c] + out.Deferred[c]
		tol := 1e-9 * math.Max(1, out.Offered[c])
		if math.Abs(got-out.Offered[c]) > tol {
			t.Fatalf("class %s: admitted %v + rejected %v + deferred %v != offered %v",
				Class(c), out.Admitted[c], out.Rejected[c], out.Deferred[c], out.Offered[c])
		}
		if out.Degraded[c] > out.Admitted[c]*(1+1e-9) {
			t.Fatalf("class %s: degraded %v > admitted %v", Class(c), out.Degraded[c], out.Admitted[c])
		}
	}
	if out.Q < 0 || out.Q > 1 || math.IsNaN(out.Q) {
		t.Fatalf("Q = %v out of [0,1]", out.Q)
	}
}

func TestAdmissionConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*AdmissionConfig)
	}{
		{"Qmin zero", func(c *AdmissionConfig) { c.Qmin = 0 }},
		{"Qmin above one", func(c *AdmissionConfig) { c.Qmin = 1.5 }},
		{"negative backlog cap", func(c *AdmissionConfig) { c.MaxBacklog = -1 }},
		{"bad class", func(c *AdmissionConfig) { c.Classes[0].ServiceTime = 0 }},
	}
	for _, tc := range cases {
		cfg := DefaultAdmissionConfig()
		tc.mutate(&cfg)
		if _, err := NewAdmission(cfg); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestAdmissionAmpleCapacityAdmitsAll(t *testing.T) {
	a := newTestAdmission(t)
	fresh := [NumClasses]float64{60000, 12000, 6000}
	out := a.Tick(admDT, &fresh, 1000)
	tickConserves(t, out)
	if out.Q != 1 {
		t.Errorf("Q = %v, want 1 at ample capacity", out.Q)
	}
	for c := 0; c < NumClasses; c++ {
		if out.Admitted[c] != fresh[c] {
			t.Errorf("class %s admitted %v, want all %v", Class(c), out.Admitted[c], fresh[c])
		}
		if out.Rejected[c] != 0 || out.Deferred[c] != 0 || out.Degraded[c] != 0 {
			t.Errorf("class %s: unexpected rejection/deferral/degradation at ample capacity: %+v", Class(c), out)
		}
	}
	if err := a.CheckInvariants(admDT); err != nil {
		t.Error(err)
	}
}

func TestAdmissionZeroCapacityRejectsOrDefers(t *testing.T) {
	a := newTestAdmission(t)
	fresh := [NumClasses]float64{100, 100, 100}
	out := a.Tick(admDT, &fresh, 0)
	tickConserves(t, out)
	for c := 0; c < NumClasses; c++ {
		if out.Admitted[c] != 0 {
			t.Errorf("class %s admitted %v with zero capacity", Class(c), out.Admitted[c])
		}
	}
	// Batch defers (Deferrable), the others reject.
	if out.Deferred[ClassBatch] != 100 {
		t.Errorf("batch deferred %v, want 100", out.Deferred[ClassBatch])
	}
	if out.Rejected[ClassInteractive] != 100 || out.Rejected[ClassBackground] != 100 {
		t.Errorf("non-deferrable classes rejected %v/%v, want 100/100",
			out.Rejected[ClassInteractive], out.Rejected[ClassBackground])
	}
	if err := a.CheckInvariants(admDT); err != nil {
		t.Error(err)
	}
}

func TestAdmissionQminShedsLowestClassFirst(t *testing.T) {
	// Demand sized so Q = m/k < Qmin: shedding must hit background
	// before batch before interactive.
	a := newTestAdmission(t, func(c *AdmissionConfig) { c.Qmin = 0.9 })
	// Erlangs at dt=60s: interactive 60000*0.02/60 = 20, batch
	// 12000*0.25/60 = 50, background 30000*0.08/60 = 40. k = 110.
	fresh := [NumClasses]float64{60000, 12000, 30000}
	out := a.Tick(admDT, &fresh, 60) // Q would be 60/110 ≈ 0.55
	tickConserves(t, out)
	if out.Q < a.cfg.Qmin-1e-9 {
		t.Errorf("Q = %v below Qmin %v after shedding", out.Q, a.cfg.Qmin)
	}
	// k' target = 60/0.9 ≈ 66.7 ⇒ shed ≈ 43.3 erl: all 40 background
	// erl plus ~3.3 batch erl. Interactive untouched.
	if out.Admitted[ClassBackground] != 0 {
		t.Errorf("background admitted %v, want 0 (shed first)", out.Admitted[ClassBackground])
	}
	if out.Admitted[ClassBatch] >= fresh[ClassBatch] || out.Admitted[ClassBatch] <= 0 {
		t.Errorf("batch admitted %v, want partial cut of %v", out.Admitted[ClassBatch], fresh[ClassBatch])
	}
	if out.Admitted[ClassInteractive] != fresh[ClassInteractive] {
		t.Errorf("interactive admitted %v, want all %v (shed last)", out.Admitted[ClassInteractive], fresh[ClassInteractive])
	}
	// Batch's cut defers, background's rejects.
	if out.Deferred[ClassBatch] <= 0 {
		t.Errorf("batch cut should defer, deferred = %v", out.Deferred[ClassBatch])
	}
	if out.Rejected[ClassBackground] != fresh[ClassBackground] {
		t.Errorf("background rejected %v, want all %v", out.Rejected[ClassBackground], fresh[ClassBackground])
	}
	if err := a.CheckInvariants(admDT); err != nil {
		t.Error(err)
	}
}

func TestAdmissionFairShareDegradesAdmitted(t *testing.T) {
	// Q in [Qmin, 1): everyone admitted but at reduced share, so all
	// admitted users count as degraded.
	a := newTestAdmission(t, func(c *AdmissionConfig) { c.Qmin = 0.5 })
	fresh := [NumClasses]float64{60000, 0, 0} // 20 erl
	out := a.Tick(admDT, &fresh, 15)          // Q = 0.75
	tickConserves(t, out)
	if math.Abs(out.Q-0.75) > 1e-9 {
		t.Errorf("Q = %v, want 0.75", out.Q)
	}
	if out.Admitted[ClassInteractive] != fresh[ClassInteractive] {
		t.Errorf("admitted %v, want all", out.Admitted[ClassInteractive])
	}
	if out.Degraded[ClassInteractive] != fresh[ClassInteractive] {
		t.Errorf("degraded %v, want all admitted at Q<1", out.Degraded[ClassInteractive])
	}
}

func TestAdmissionShedLadder(t *testing.T) {
	fresh := [NumClasses]float64{6000, 1200, 600}
	for level := 0; level <= MaxShedLevel; level++ {
		a := newTestAdmission(t)
		a.SetShedLevel(level)
		if a.ShedLevel() != level {
			t.Fatalf("shed level = %d, want %d", a.ShedLevel(), level)
		}
		f := fresh
		out := a.Tick(admDT, &f, 1000)
		tickConserves(t, out)
		modes := shedTable[level]
		for c := 0; c < NumClasses; c++ {
			switch modes[c] {
			case modeAdmit:
				if out.Admitted[c] != fresh[c] || out.Degraded[c] != 0 {
					t.Errorf("level %d class %s: admitted %v degraded %v, want full clean admission",
						level, Class(c), out.Admitted[c], out.Degraded[c])
				}
			case modeDegrade:
				if out.Admitted[c] != fresh[c] || out.Degraded[c] != fresh[c] {
					t.Errorf("level %d class %s: admitted %v degraded %v, want full degraded admission",
						level, Class(c), out.Admitted[c], out.Degraded[c])
				}
			case modeShed:
				if out.Admitted[c] != 0 {
					t.Errorf("level %d class %s: admitted %v, want 0 (shed)", level, Class(c), out.Admitted[c])
				}
			}
		}
		if err := a.CheckInvariants(admDT); err != nil {
			t.Errorf("level %d: %v", level, err)
		}
	}
	// Clamping.
	a := newTestAdmission(t)
	a.SetShedLevel(-3)
	if a.ShedLevel() != 0 {
		t.Errorf("negative level clamped to %d, want 0", a.ShedLevel())
	}
	a.SetShedLevel(99)
	if a.ShedLevel() != MaxShedLevel {
		t.Errorf("huge level clamped to %d, want %d", a.ShedLevel(), MaxShedLevel)
	}
}

func TestAdmissionBacklogReplaysNextTick(t *testing.T) {
	a := newTestAdmission(t)
	fresh := [NumClasses]float64{0, 600, 0}
	out := a.Tick(admDT, &fresh, 0) // no capacity: batch defers
	if out.Deferred[ClassBatch] != 600 {
		t.Fatalf("deferred %v, want 600", out.Deferred[ClassBatch])
	}
	if a.Backlog(ClassBatch) != 600 {
		t.Fatalf("backlog %v, want 600", a.Backlog(ClassBatch))
	}
	// Next tick with ample capacity replays the backlog as offered.
	zero := [NumClasses]float64{}
	out = a.Tick(admDT, &zero, 1000)
	tickConserves(t, out)
	if out.Offered[ClassBatch] != 600 {
		t.Errorf("replayed offered %v, want 600", out.Offered[ClassBatch])
	}
	if out.Admitted[ClassBatch] != 600 {
		t.Errorf("replayed admitted %v, want 600", out.Admitted[ClassBatch])
	}
	if a.Backlog(ClassBatch) != 0 {
		t.Errorf("backlog after replay %v, want 0", a.Backlog(ClassBatch))
	}
	if err := a.CheckInvariants(2 * admDT); err != nil {
		t.Error(err)
	}
}

func TestAdmissionBacklogCapOverflowsToRejection(t *testing.T) {
	a := newTestAdmission(t, func(c *AdmissionConfig) { c.MaxBacklog = 500 })
	fresh := [NumClasses]float64{0, 2000, 0}
	out := a.Tick(admDT, &fresh, 0)
	tickConserves(t, out)
	if out.Deferred[ClassBatch] != 500 {
		t.Errorf("deferred %v, want backlog cap 500", out.Deferred[ClassBatch])
	}
	if out.Rejected[ClassBatch] != 1500 {
		t.Errorf("rejected %v, want overflow 1500", out.Rejected[ClassBatch])
	}
	if err := a.CheckInvariants(admDT); err != nil {
		t.Error(err)
	}
}

// erlangWait is the Erlang-C mean wait of an M/M/n queue, an error
// counting as an infinite wait, as the SLO decision reads it.
func erlangWait(n int, lambda, mu float64) float64 {
	wait, err := stats.MMcWait(n, lambda, mu)
	if err != nil {
		return math.Inf(1)
	}
	return wait
}

// TestSLOMissMatchesErlangC holds sloMiss to the full Erlang-C wait on a
// grid: n from 1 to 10⁶ servers, offered load a = λ/μ from 0 to 1.2·n
// with dense steps within two servers of saturation (down to a few ulps
// of n), the default classes' service rates and SLOs, and SLOs of 0,
// 1e-9, 1e300 and +Inf. Every case must decide exactly as MMcWait > slo.
// At 10⁶ servers, where each undecided case runs a million-step
// recurrence, the loads thin to 0.8·n, the saturation band and the
// overloads.
func TestSLOMissMatchesErlangC(t *testing.T) {
	classes := DefaultRequestClasses()
	slos := []float64{0, 1e-9, 1e300, math.Inf(1)}
	var mus []float64
	for c := 0; c < NumClasses; c++ {
		mus = append(mus, 1/classes[c].ServiceTime.Seconds())
		slos = append(slos, classes[c].SLOWait.Seconds())
	}
	cases, misses := 0, 0
	for _, n := range []int{1, 2, 3, 7, 64, 1_000, 6_586, 1_000_000} {
		fn := float64(n)
		below := math.Nextafter(fn, 0)
		loads := []float64{0.8 * fn, fn - 2, fn - 1, fn - 0.25, below, fn, math.Nextafter(fn, math.Inf(1)), 1.2 * fn}
		if n < 1_000_000 {
			for k := 0; k <= 24; k++ {
				loads = append(loads, fn*float64(k)/20)
			}
			for k := 1; k <= 40; k++ {
				loads = append(loads, fn-float64(k)/20) // n − a in (0, 2]
			}
			for _, d := range []float64{1e-3, 1e-6, 1e-9} {
				loads = append(loads, fn-d)
			}
			loads = append(loads, math.Nextafter(below, 0))
		}
		for _, mu := range mus {
			// The arrival rates one and two ulps below n·μ, whose a = λ/μ
			// may round to n.
			sat := math.Nextafter(fn*mu, 0)
			lambdas := []float64{sat, math.Nextafter(sat, 0)}
			for _, a := range loads {
				if a >= 0 {
					lambdas = append(lambdas, a*mu)
				}
			}
			for _, lambda := range lambdas {
				wait := erlangWait(n, lambda, mu)
				for _, slo := range slos {
					cases++
					want := wait > slo
					if want {
						misses++
					}
					if got := sloMiss(n, lambda, mu, slo); got != want {
						t.Fatalf("n=%d lambda=%v mu=%v slo=%v: sloMiss %v, Erlang-C wait %v", n, lambda, mu, slo, got, wait)
					}
				}
			}
		}
	}
	if misses == 0 || misses == cases {
		t.Fatalf("%d of %d cases miss; the grid must hold both outcomes", misses, cases)
	}
}

func TestAdmissionSLOMiss(t *testing.T) {
	a := newTestAdmission(t)
	// Comfortable: 20 erl of interactive on 100 servers → tiny wait.
	fresh := [NumClasses]float64{60000, 0, 0}
	out := a.Tick(admDT, &fresh, 100)
	if out.SLOMiss[ClassInteractive] {
		t.Errorf("SLO miss at ample capacity: %v admitted on %v server-equivalents", out.Admitted[ClassInteractive], out.CapacityErl)
	}
	// Crunch at the Qmin floor: the admitted load runs hot against its
	// allocation and the expected wait blows through the 40ms SLO.
	a2 := newTestAdmission(t, func(c *AdmissionConfig) { c.Qmin = 0.5 })
	fresh = [NumClasses]float64{60000, 0, 0}
	out = a2.Tick(admDT, &fresh, 11) // 20 erl demand on 11 servers, Q≈0.55
	if !out.SLOMiss[ClassInteractive] {
		t.Errorf("no SLO miss under crunch: %v admitted on %v server-equivalents", out.Admitted[ClassInteractive], out.CapacityErl)
	}
	if a2.SLOMissRate(ClassInteractive) != 1 {
		t.Errorf("SLO miss rate %v, want 1", a2.SLOMissRate(ClassInteractive))
	}
	if a2.SLOMissRate(ClassBatch) != 0 {
		t.Errorf("idle class SLO miss rate %v, want 0", a2.SLOMissRate(ClassBatch))
	}
}

func TestAdmissionCumulativeAccounting(t *testing.T) {
	a := newTestAdmission(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		var fresh [NumClasses]float64
		for c := range fresh {
			fresh[c] = rng.Float64() * 50000
		}
		cap := rng.Float64() * 40
		out := a.Tick(admDT, &fresh, cap)
		tickConserves(t, out)
		if err := a.CheckInvariants(time.Duration(i) * admDT); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if a.Ticks() != 200 {
		t.Errorf("ticks = %d, want 200", a.Ticks())
	}
	total := a.AdmittedUsers() + a.RejectedUsers() + a.DeferredBacklog()
	if math.Abs(total-a.OfferedUsers()) > 1e-6*a.OfferedUsers() {
		t.Errorf("cumulative conservation: admitted %v + rejected %v + backlog %v != offered %v",
			a.AdmittedUsers(), a.RejectedUsers(), a.DeferredBacklog(), a.OfferedUsers())
	}
	if a.DegradedUsers() > a.AdmittedUsers() {
		t.Errorf("degraded %v > admitted %v", a.DegradedUsers(), a.AdmittedUsers())
	}
}

// Property (satellite 1): for fixed offered load and shed level, the
// granted share Q is monotone non-decreasing in capacity.
func TestAdmissionQMonotoneInCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var fresh [NumClasses]float64
		for c := range fresh {
			fresh[c] = rng.Float64() * 100000
		}
		qmin := 0.1 + 0.9*rng.Float64()
		level := rng.Intn(MaxShedLevel + 1)
		prevQ := -1.0
		for _, capScale := range []float64{0, 0.1, 0.25, 0.5, 1, 2, 4, 8, 16, 64} {
			a := newTestAdmission(t, func(c *AdmissionConfig) { c.Qmin = qmin })
			a.SetShedLevel(level)
			f := fresh
			out := a.Tick(admDT, &f, capScale*10)
			tickConserves(t, out)
			if out.Q < prevQ-1e-9 {
				t.Fatalf("trial %d (qmin %v level %d): Q fell from %v to %v as capacity rose to %v",
					trial, qmin, level, prevQ, out.Q, capScale*10)
			}
			prevQ = out.Q
		}
		if prevQ != 1 {
			t.Fatalf("trial %d: Q = %v at effectively infinite capacity, want 1", trial, prevQ)
		}
	}
}

// Property (satellite 1): randomized conservation across class mixes,
// capacities, shed levels, and consecutive ticks with backlog carryover.
func TestAdmissionConservationRandomized(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultAdmissionConfig()
		cfg.Qmin = 0.1 + 0.9*rng.Float64()
		cfg.MaxBacklog = rng.Float64() * 1e5
		a, err := NewAdmission(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if rng.Intn(10) == 0 {
				a.SetShedLevel(rng.Intn(MaxShedLevel + 1))
			}
			var fresh [NumClasses]float64
			for c := range fresh {
				if rng.Intn(4) == 0 {
					continue // zero-population class
				}
				fresh[c] = rng.Float64() * 200000
			}
			out := a.Tick(admDT, &fresh, rng.Float64()*100)
			tickConserves(t, out)
			if err := a.CheckInvariants(time.Duration(i) * admDT); err != nil {
				t.Fatalf("seed %d tick %d: %v", seed, i, err)
			}
		}
	}
}

// Satellite 4: the steady-state admission tick must not allocate — the
// same discipline as the dispatch/physics hot paths.
func TestAdmissionTickAllocFree(t *testing.T) {
	a := newTestAdmission(t)
	fresh := [NumClasses]float64{600000, 120000, 60000}
	sink := a.Tick(admDT, &fresh, 10000) // warm up at the 10k tier
	allocs := testing.AllocsPerRun(100, func() {
		f := fresh
		sink = a.Tick(admDT, &f, 10000)
	})
	if allocs != 0 {
		t.Errorf("admission tick allocates %v allocs/op, want 0", allocs)
	}
	_ = sink
}

func TestAdmissionTickPanicsOnBadDT(t *testing.T) {
	a := newTestAdmission(t)
	defer func() {
		if recover() == nil {
			t.Error("non-positive dt should panic")
		}
	}()
	var fresh [NumClasses]float64
	a.Tick(0, &fresh, 10)
}

func TestAdmissionSanitizesBadInputs(t *testing.T) {
	a := newTestAdmission(t)
	fresh := [NumClasses]float64{math.NaN(), -50, 1000}
	out := a.Tick(admDT, &fresh, math.NaN())
	tickConserves(t, out)
	if out.Offered[ClassInteractive] != 0 || out.Offered[ClassBatch] != 0 {
		t.Errorf("NaN/negative arrivals not sanitized: %+v", out.Offered)
	}
	if err := a.CheckInvariants(admDT); err != nil {
		t.Error(err)
	}
}
