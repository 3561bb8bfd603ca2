// Request-path micro benchmarks: the batched admission tick at fleet
// scale. One tick aggregates every arrival of a decision period — the
// O(ticks)-not-O(requests) trick — so this is the entire per-period cost
// of request-level elasticity. The benchdiff gate watches allocs/op
// (must stay 0: the tick runs inside the manager's event handler) and
// users/sec throughput.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// benchAdmissionTick drives the admission controller at load times the
// capacity of an nServers fleet.
func benchAdmissionTick(b *testing.B, nServers int, load float64) {
	b.Helper()
	cfg := workload.DefaultAdmissionConfig()
	adm, err := workload.NewAdmission(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const dt = time.Minute
	mix := workload.DefaultClassMix()
	var erl, fresh [workload.NumClasses]float64
	mix.Split(float64(nServers)*load, &erl)
	for c := 0; c < workload.NumClasses; c++ {
		rate := erl[c] / cfg.Classes[c].ServiceTime.Seconds()
		fresh[c] = workload.UsersPerTick(rate, dt)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var users float64
	for i := 0; i < b.N; i++ {
		out := adm.Tick(dt, &fresh, float64(nServers))
		for c := 0; c < workload.NumClasses; c++ {
			users += out.Offered[c]
		}
	}
	b.ReportMetric(users/b.Elapsed().Seconds(), "users/sec")
}

// BenchmarkAdmissionTick1k is the CI-sized tier, at 1.2x capacity, so
// the fair-share and shedding paths (not just the fast admit-all path)
// are in the loop.
func BenchmarkAdmissionTick1k(b *testing.B) { benchAdmissionTick(b, 1_000, 1.2) }

// BenchmarkAdmissionTick10k is the headline tier: tens of millions of
// users per tick admitted through one allocation-free pass, at 1.2x
// capacity.
func BenchmarkAdmissionTick10k(b *testing.B) { benchAdmissionTick(b, 10_000, 1.2) }

// BenchmarkAdmissionTick6kUnderLoad is the under-load tier: 6,000
// server-equivalents at ρ = 0.8, where every class is admitted in full
// and its SLO is judged on thousands of servers. That is a geo site's
// common tick, and the one where the Erlang C ≤ 1 bound decides the SLO
// without the O(n) recurrence.
func BenchmarkAdmissionTick6kUnderLoad(b *testing.B) { benchAdmissionTick(b, 6_000, 0.8) }
