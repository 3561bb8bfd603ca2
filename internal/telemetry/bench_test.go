package telemetry

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/par"
)

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
