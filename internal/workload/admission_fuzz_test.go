package workload

import (
	"math"
	"testing"
	"time"
)

// FuzzAdmissionTick throws arbitrary class populations, capacities, and
// Qmin knobs at the admission controller and asserts the structural
// guarantees: no NaN or negative counts, per-tick conservation
// (admitted + rejected + deferred == offered), Q in [0,1], and the
// cumulative invariants after a short multi-tick run with backlog
// carryover. Registered in the CI fuzz-smoke job.
func FuzzAdmissionTick(f *testing.F) {
	f.Add(60000.0, 12000.0, 6000.0, 40.0, 0.5, 1e6, 0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.9, 0.0, 3)
	f.Add(1e9, 1e9, 1e9, 1.0, 0.1, 100.0, 1)
	f.Add(-5.0, math.NaN(), math.Inf(1), -3.0, 1.0, 1e3, 2)
	f.Fuzz(func(t *testing.T, i, b, g, capErl, qmin, maxBacklog float64, shed int) {
		cfg := DefaultAdmissionConfig()
		cfg.Qmin = clampFuzzF(qmin, 0.01, 1)
		cfg.MaxBacklog = clampFuzzF(maxBacklog, 0, 1e9)
		a, err := NewAdmission(cfg)
		if err != nil {
			t.Fatalf("sanitized config rejected: %v", err)
		}
		a.SetShedLevel(shed) // clamps internally; any int is legal
		fresh := [NumClasses]float64{i, b, g}
		const dt = time.Minute
		for tick := 0; tick < 3; tick++ {
			out := a.Tick(dt, &fresh, capErl)
			if out.Q < 0 || out.Q > 1 || math.IsNaN(out.Q) {
				t.Fatalf("tick %d: Q = %v out of [0,1]", tick, out.Q)
			}
			for c := 0; c < NumClasses; c++ {
				for _, v := range [...]float64{out.Offered[c], out.Admitted[c], out.Rejected[c], out.Deferred[c], out.Degraded[c]} {
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("tick %d class %s: invalid count %v", tick, Class(c), v)
					}
				}
				got := out.Admitted[c] + out.Rejected[c] + out.Deferred[c]
				tol := 1e-6 * math.Max(1, out.Offered[c])
				if math.Abs(got-out.Offered[c]) > tol {
					t.Fatalf("tick %d class %s: conservation broken: %v+%v+%v != %v",
						tick, Class(c), out.Admitted[c], out.Rejected[c], out.Deferred[c], out.Offered[c])
				}
			}
			if err := a.CheckInvariants(time.Duration(tick) * dt); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
		}
	})
}

// clampFuzzF maps an arbitrary fuzzed float into [lo, hi], folding
// NaN/Inf to lo — the same sanitizing idiom as the trace fuzz targets.
func clampFuzzF(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// FuzzSLOMiss asserts that sloMiss decides exactly what the Erlang-C
// wait it skips would: stats.MMcWait(n, λ, μ) > slo, an error counting
// as an infinite wait, for any n, rates and SLO, NaN and infinities
// included. n is folded into (−100,001, 100,001) so one input runs the
// O(n) recurrence quickly. Registered in the CI fuzz-smoke job.
func FuzzSLOMiss(f *testing.F) {
	f.Add(1900, 76000.0, 50.0, 0.04)
	f.Add(7, 6.999, 1.0, 1e-9)
	f.Add(64, 63.99, 1.0, 1e300)
	f.Add(1, 0.5, 4.0, math.Inf(1))
	f.Add(0, 1.0, 1.0, 0.0)
	f.Add(3, math.NaN(), -1.0, math.NaN())
	f.Fuzz(func(t *testing.T, n int, lambda, mu, slo float64) {
		n %= 100_001
		if got, want := sloMiss(n, lambda, mu, slo), erlangWait(n, lambda, mu) > slo; got != want {
			t.Fatalf("sloMiss(%d, %v, %v, %v) = %v, MMcWait > slo = %v", n, lambda, mu, slo, got, want)
		}
	})
}
