package power

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSimulateAvailabilityMatchesAnalytic(t *testing.T) {
	d := DefaultTier2Design()
	analytic, err := d.Availability()
	if err != nil {
		t.Fatal(err)
	}
	// 200 simulated years of failure injection.
	const years = 200
	rng := sim.NewRNG(1)
	sim200, err := SimulateAvailabilityOn(sim.NewEngine(rng.Int63()), d, years*365*24*time.Hour, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Unavailability is the sensitive quantity (~0.24 %); demand
	// agreement within 25 % relative.
	ua, us := 1-analytic, 1-sim200
	if math.Abs(us-ua)/ua > 0.25 {
		t.Errorf("simulated unavailability %.5f vs analytic %.5f (>25%% apart)", us, ua)
	}
	// And the simulated system is classified the same tier.
	if ClassifyTier(sim200) != ClassifyTier(analytic) {
		t.Errorf("tier mismatch: simulated %v vs analytic %v",
			ClassifyTier(sim200), ClassifyTier(analytic))
	}
}

func TestSimulateAvailabilityRedundancyHelps(t *testing.T) {
	// Removing the spare generator must hurt empirically too.
	const years = 100
	withSpare := DefaultTier2Design()
	noSpare := DefaultTier2Design()
	noSpare.GenHave = 1

	rng := sim.NewRNG(2)
	a, err := SimulateAvailabilityOn(sim.NewEngine(rng.Int63()), withSpare, years*365*24*time.Hour, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng = sim.NewRNG(2)
	b, err := SimulateAvailabilityOn(sim.NewEngine(rng.Int63()), noSpare, years*365*24*time.Hour, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b >= a {
		t.Errorf("dropping the spare generator did not reduce availability: %.5f vs %.5f", b, a)
	}
}

func TestSimulateAvailabilityValidation(t *testing.T) {
	d := DefaultTier2Design()
	rng := sim.NewRNG(1)
	if _, err := SimulateAvailabilityOn(sim.NewEngine(rng.Int63()), d, 0, rng); err == nil {
		t.Error("zero horizon should error")
	}
	bad := DefaultTier2Design()
	bad.Utility.MTBF = 0
	if _, err := SimulateAvailabilityOn(sim.NewEngine(rng.Int63()), bad, time.Hour, rng); err == nil {
		t.Error("invalid component should error")
	}
	bad = DefaultTier2Design()
	bad.GenNeed = 5
	if _, err := SimulateAvailabilityOn(sim.NewEngine(rng.Int63()), bad, time.Hour, rng); err == nil {
		t.Error("invalid redundancy should error")
	}
}

// TestSimulateAvailabilityZeroMTTR is the regression for the zero-MTTR
// bug: a component with MTTR == 0 passes validation but used to feed
// rng.Exp an infinite repair rate. Instant repair means the component can
// never be observed down, so it must not reduce availability at all.
func TestSimulateAvailabilityZeroMTTR(t *testing.T) {
	d := DefaultTier2Design()
	// A fragile series component (fails every ~6h) that repairs
	// instantly. Keep the rest of the design perfect-ish by comparing
	// against the same design without the component.
	d.Path = append(d.Path, Component{Name: "flaky-switch", MTBF: 6 * time.Hour, MTTR: 0})
	const horizon = 365 * 24 * time.Hour
	rng := sim.NewRNG(3)
	withFlaky, err := SimulateAvailabilityOn(sim.NewEngine(rng.Int63()), d, horizon, rng)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultTier2Design()
	rng = sim.NewRNG(3)
	baseA, err := SimulateAvailabilityOn(sim.NewEngine(rng.Int63()), base, horizon, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, and the instantly-repaired component contributes no
	// downtime, so availability must not collapse: allow only ordinary
	// Monte-Carlo noise between the two runs.
	if math.Abs(withFlaky-baseA) > 0.01 {
		t.Errorf("instantly-repaired component moved availability: %.5f vs %.5f", withFlaky, baseA)
	}
}

// TestSimulateAvailabilityZeroMTTRNoEventStorm bounds the event count: a
// zero-MTTR component must cost one event per failure, not a zero-delay
// repair storm.
func TestSimulateAvailabilityZeroMTTRNoEventStorm(t *testing.T) {
	d := DefaultTier2Design()
	d.Path = append(d.Path, Component{Name: "flaky", MTBF: time.Hour, MTTR: 0})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := sim.NewRNG(4)
		if _, err := SimulateAvailabilityOn(sim.NewEngine(rng.Int63()), d, 30*24*time.Hour, rng); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SimulateAvailability did not finish; zero-MTTR event storm suspected")
	}
}
