package telemetry

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkAppendRetentionSteady measures steady-state ingest with the
// retention window full, so every append expires one old point. The
// pre-amortization trim recopied the whole retained band per expired
// point — O(window) per append, quadratic over a run — which this bench
// sweeps by window size: per-op cost must stay flat as the window grows.
func BenchmarkAppendRetentionSteady(b *testing.B) {
	for _, window := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			interval := time.Second
			store, err := NewStore(Config{
				RawInterval:  interval,
				RawRetention: time.Duration(window) * interval,
				Shards:       1,
			})
			if err != nil {
				b.Fatal(err)
			}
			a := store.Appender("srv/cpu")
			// Fill the window so the steady state (one drop per append)
			// starts at iteration 0.
			for i := 0; i < window; i++ {
				if err := a.Append(time.Duration(i)*interval, float64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := time.Duration(window+i) * interval
				if err := a.Append(t, float64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendByKey measures the map-lookup ingest path (one string
// hash + map probe per point).
func BenchmarkAppendByKey(b *testing.B) {
	store, err := NewStore(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const keys = 100
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("srv%02d/cpu", k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := time.Duration(i) * 15 * time.Second
		if err := store.Append(names[i%keys], ts, float64(i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendByHandle measures the same ingest through resolved
// Appender handles — the fast path collection pipelines should use.
func BenchmarkAppendByHandle(b *testing.B) {
	store, err := NewStore(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const keys = 100
	handles := make([]*Appender, keys)
	for k := range handles {
		handles[k] = store.Appender(fmt.Sprintf("srv%02d/cpu", k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := time.Duration(i) * 15 * time.Second
		if err := handles[i%keys].Append(ts, float64(i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendRounds ingests round by round through 2,000 resolved
// Appenders, one point per key per 15 s round: the telemetry
// experiment's shape. BenchmarkAppendByHandle's 100 series fit in cache;
// 2,000 do not, so each append pays for the memory it touches. One op
// is one round; ns/point divides by the keys.
func BenchmarkAppendRounds(b *testing.B) {
	store, err := NewStore(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const keys = 2000
	handles := make([]*Appender, keys)
	for k := range handles {
		handles[k] = store.Appender(fmt.Sprintf("srv%04d/cpu", k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := time.Duration(i) * 15 * time.Second
		v := float64(i % 960)
		for _, a := range handles {
			if err := a.Append(ts, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/point")
}
