package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSimulateMM1MatchesFluidModel(t *testing.T) {
	// The fluid QueueModel's R = S/(1−ρ) is the M/M/1 mean sojourn
	// time; the event-driven simulation must agree.
	const mu = 50.0 // 20 ms mean service
	q := QueueModel{ServiceTime: 20 * time.Millisecond, MaxResponse: time.Minute}
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		lambda := rho * mu
		rng := sim.NewRNG(int64(rho * 100))
		res, err := SimulateMM1On(sim.NewEngine(rng.Int63()), lambda, mu, 6*time.Hour, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Response(rho)
		got := res.MeanResponse
		rel := math.Abs(float64(got-want)) / float64(want)
		if rel > 0.08 {
			t.Errorf("rho=%v: simulated mean %v vs fluid %v (%.1f%% apart)",
				rho, got, want, rel*100)
		}
		if math.Abs(res.MeanUtilization-rho) > 0.05 {
			t.Errorf("rho=%v: utilization %v", rho, res.MeanUtilization)
		}
		// M/M/1 sojourn is exponential: P95 ≈ 3·mean.
		ratio := float64(res.P95Response) / float64(res.MeanResponse)
		if ratio < 2.5 || ratio > 3.5 {
			t.Errorf("rho=%v: P95/mean = %v, want ~3 (exponential sojourn)", rho, ratio)
		}
		// Throughput ≈ lambda·horizon.
		wantN := lambda * (6 * time.Hour).Seconds()
		if math.Abs(float64(res.Completed)-wantN) > 0.05*wantN {
			t.Errorf("rho=%v: completed %d, want ~%.0f", rho, res.Completed, wantN)
		}
	}
}

func TestSimulateMM1Validation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := SimulateMM1On(sim.NewEngine(rng.Int63()), 0, 1, time.Hour, rng); err == nil {
		t.Error("zero lambda should error")
	}
	if _, err := SimulateMM1On(sim.NewEngine(rng.Int63()), 1, 0, time.Hour, rng); err == nil {
		t.Error("zero mu should error")
	}
	if _, err := SimulateMM1On(sim.NewEngine(rng.Int63()), 1, 1, 0, rng); err == nil {
		t.Error("zero horizon should error")
	}
	// A horizon too short for any completion errors rather than lying.
	if _, err := SimulateMM1On(sim.NewEngine(rng.Int63()), 0.0001, 0.0001, time.Millisecond, rng); err == nil {
		t.Error("no-completion run should error")
	}
}

func TestSimulateMM1Deterministic(t *testing.T) {
	rng := sim.NewRNG(7)
	a, err := SimulateMM1On(sim.NewEngine(rng.Int63()), 30, 50, time.Hour, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng = sim.NewRNG(7)
	b, err := SimulateMM1On(sim.NewEngine(rng.Int63()), 30, 50, time.Hour, rng)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.MeanResponse != b.MeanResponse {
		t.Error("same seed produced different queue runs")
	}
}
