package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

// TestConcurrentScrapeWhileIngest is the live-exporter shape: one
// goroutine ingests frame rounds through AppendPar on a 2-worker pool,
// one runs Batch bursts over plain series, one appends point by point
// through Appenders to plain series of its own, and scrapers hammer every
// read path the serving layer uses (Query at several resolutions,
// LatestInto, Stats, Keys, the derived analyses) until the writers
// finish, at least minScrapes times each. A scraper's aggregate Query or
// Stats folds the pending points of a per-point series, and the pending
// rounds of the frame under the writer's lock, while the frame's own
// catch-ups fan its 1,024 columns out over two column shards. Run under
// -race this proves the store's concurrency contract; without -race it
// is still a torn-read smoke test because every observed bucket must be
// internally consistent.
func TestConcurrentScrapeWhileIngest(t *testing.T) {
	s, err := NewStore(Config{RawInterval: 15 * time.Second, RawRetention: time.Hour, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Two column shards (par.MinShardLen is 512).
	frameKeys := make([]string, 1024)
	for i := range frameKeys {
		frameKeys[i] = fmt.Sprintf("f/%04d", i)
	}
	fw, err := s.Frames(frameKeys)
	if err != nil {
		t.Fatal(err)
	}
	plainKeys := make([]string, 8)
	appenders := make([]*Appender, len(plainKeys))
	for i := range plainKeys {
		plainKeys[i] = fmt.Sprintf("plain/%d", i)
		appenders[i] = s.Appender(plainKeys[i])
	}
	pointKeys := make([]string, 4)
	pointApps := make([]*Appender, len(pointKeys))
	for i := range pointKeys {
		pointKeys[i] = fmt.Sprintf("point/%d", i)
		pointApps[i] = s.Appender(pointKeys[i])
	}

	const rounds, minScrapes = 2000, 1000
	var stop atomic.Bool
	var writers, readers sync.WaitGroup

	// Frame ingester.
	pool := par.New(2)
	defer pool.Close()
	writers.Add(1)
	go func() {
		defer writers.Done()
		vals := make([]float64, len(frameKeys))
		for r := 0; r < rounds; r++ {
			ts := time.Duration(r) * 15 * time.Second
			for k := range vals {
				vals[k] = float64(r + k)
			}
			if err := fw.AppendPar(ts, vals, pool); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Batched plain-series ingester.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for r := 0; r < rounds; r++ {
			ts := time.Duration(r) * 15 * time.Second
			b := s.BeginBatch()
			for i, a := range appenders {
				if err := b.Append(a, ts, float64(r*i)); err != nil {
					b.End()
					t.Error(err)
					return
				}
			}
			b.End()
		}
	}()

	// Per-point ingester, one Appender.Append per sample.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for r := 0; r < rounds; r++ {
			ts := time.Duration(r) * 15 * time.Second
			for i, a := range pointApps {
				if err := a.Append(ts, float64(r+i)+0.5); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Scrapers.
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			latest := make([]float64, fw.Width())
			for i := 0; i < minScrapes || !stop.Load(); i++ {
				var key string
				switch i % 3 {
				case 0:
					key = frameKeys[i%len(frameKeys)]
				case 1:
					key = plainKeys[i%len(plainKeys)]
				default:
					key = pointKeys[(i+g)%len(pointKeys)]
				}
				res := []Resolution{ResRaw, ResMinute, ResQuarter, ResHour}[i%4]
				bs, err := s.Query(key, 0, 1<<62, res)
				if err != nil {
					t.Errorf("query %q: %v", key, err)
					return
				}
				for _, b := range bs {
					if b.Count <= 0 || b.Min > b.Max {
						t.Errorf("torn bucket for %q: %+v", key, b)
						return
					}
				}
				if ts, ok := fw.LatestInto(latest); ok {
					// A round is written atomically: the latest row must be
					// the self-consistent r, r+1, r+2, ... pattern.
					base := latest[0]
					for k, v := range latest {
						if v != base+float64(k) {
							t.Errorf("torn frame row at %v: %v", ts, latest)
							return
						}
					}
				}
				if st := s.Stats(); st.RawPoints < 0 || st.Keys < 0 {
					t.Errorf("implausible stats: %+v", st)
					return
				}
				if i%64 == 0 {
					s.Keys()
					// Derived analyses share Query's locking; exercise them
					// on a framed and a per-point key.
					if _, err := s.DailyAverages(frameKeys[0]); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.HourlyPattern(pointKeys[g%len(pointKeys)]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}

	// Scrape until the writers finish.
	done := make(chan struct{})
	go func() {
		defer close(done)
		writers.Wait()
		stop.Store(true)
		readers.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent soak wedged")
	}
	// Every per-point sample reached the levels exactly once.
	for i, key := range pointKeys {
		bs, err := s.Query(key, 0, 1<<62, ResHour)
		if err != nil {
			t.Fatal(err)
		}
		var count int64
		var sum float64
		for _, b := range bs {
			count += b.Count
			sum += b.Sum
		}
		want := float64(rounds)*float64(rounds-1)/2 + float64(rounds)*(float64(i)+0.5)
		if count != rounds || sum != want {
			t.Errorf("%s: hour buckets hold %d samples summing to %v, want %d and %v", key, count, sum, rounds, want)
		}
	}
}

// TestFramedReadsDoNotBlockBehindBatch pins the scrape-latency fix: a
// Batch burst holds every shard lock, but framed keys live outside the
// shards, so Query and LatestInto on them must complete while the batch
// is open — a minute-resolution Query too, which catches up the frame's
// pending rounds. Before Query consulted the frame registry first, a
// framed scrape blocked on the (irrelevant) shard its key hashed to
// until the burst ended.
func TestFramedReadsDoNotBlockBehindBatch(t *testing.T) {
	s, err := NewStore(Config{RawInterval: 15 * time.Second, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := s.Frames([]string{"f/a", "f/b"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := fw.Append(time.Duration(r)*15*time.Second, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if fw.folded == len(fw.raw) {
		t.Fatal("no frame round pending")
	}

	b := s.BeginBatch()
	defer b.End()

	done := make(chan error, 1)
	go func() {
		if _, err := s.Query("f/a", 0, 1<<62, ResRaw); err != nil {
			done <- err
			return
		}
		bs, err := s.Query("f/b", 0, 1<<62, ResMinute)
		if err != nil {
			done <- err
			return
		}
		if len(bs) != 1 || bs[0].Count != 3 || bs[0].Sum != 6 {
			done <- fmt.Errorf("minute buckets %+v, want one of 3 rounds summing to 6", bs)
			return
		}
		buf := make([]float64, fw.Width())
		if _, ok := fw.LatestInto(buf); !ok {
			done <- fmt.Errorf("no latest round")
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("framed read blocked behind an open batch")
	}
}

func TestLatestInto(t *testing.T) {
	s, err := NewStore(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fw, err := s.Frames([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 3)
	if _, ok := fw.LatestInto(buf); ok {
		t.Fatal("LatestInto reported a round before any append")
	}
	if err := fw.Append(10*time.Second, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Append(25*time.Second, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	ts, ok := fw.LatestInto(buf)
	if !ok || ts != 25*time.Second {
		t.Fatalf("LatestInto = %v, %v", ts, ok)
	}
	if buf[0] != 4 || buf[1] != 5 || buf[2] != 6 {
		t.Fatalf("latest row = %v", buf)
	}
	// Undersized destination is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	fw.LatestInto(make([]float64, 2))
}
