package telemetry

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/par"
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

// BenchmarkFrameRounds ingests frame rounds through AppendPar on a
// 2-worker pool, in the two shapes core.DataCenter feeds: 20,004 columns
// (a 10k-server facility) for 480 rounds at 15 s, and 200,004 columns (a
// 100k-server facility) for 60 rounds at 1 min. Each op builds a fresh
// store outside the timer and ends with Stats, so the catch-up that Stats
// forces is timed too. ns/round divides by the rounds.
func BenchmarkFrameRounds(b *testing.B) {
	for _, bc := range []struct {
		width, rounds int
		step          time.Duration
	}{
		{20_004, 480, 15 * time.Second},
		{200_004, 60, time.Minute},
	} {
		b.Run(fmt.Sprintf("cols=%d", bc.width), func(b *testing.B) {
			if testing.Short() && bc.width > 100_000 {
				b.Skip("the 200k-column frame is skipped under -short")
			}
			keys := make([]string, bc.width)
			for k := range keys {
				keys[k] = fmt.Sprintf("srv%06d/power", k)
			}
			// A few distinct rounds, cycled, so generating values costs
			// nothing inside the timer.
			rng := rand.New(rand.NewSource(1))
			rows := make([][]float64, 8)
			for i := range rows {
				rows[i] = make([]float64, bc.width)
				for k := range rows[i] {
					rows[i][k] = rng.Float64()*300 + 50
				}
			}
			pool := par.New(2)
			defer pool.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := NewStore(DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				fw, err := s.Frames(keys)
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				b.StartTimer()
				for r := 0; r < bc.rounds; r++ {
					if err := fw.AppendPar(time.Duration(r)*bc.step, rows[r%len(rows)], pool); err != nil {
						b.Fatal(err)
					}
				}
				s.Stats()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.rounds), "ns/round")
		})
	}
}
