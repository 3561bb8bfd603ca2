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
// goroutine ingests a wide frame's rounds through AppendPar on a
// 2-worker pool, one ingests a small frame's rounds through Append, and
// scrapers hammer every read path the serving layer uses (Query at
// several resolutions, LatestInto, Stats, Keys, the derived analyses)
// until the writers finish, at least minScrapes times each. A scraper's
// aggregate Query or Stats folds a frame's pending rounds under its
// writer's lock, while the wide frame's own catch-ups fan its 1,024
// columns out over two column shards. Run under -race this proves the
// store's concurrency contract; without -race it is still a torn-read
// smoke test because every observed bucket must be internally
// consistent.
func TestConcurrentScrapeWhileIngest(t *testing.T) {
	s, err := NewStore(Config{RawRetention: time.Hour})
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
	smallKeys := make([]string, 8)
	for i := range smallKeys {
		smallKeys[i] = fmt.Sprintf("small/%d", i)
	}
	small, err := s.Frames(smallKeys)
	if err != nil {
		t.Fatal(err)
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

	// Small-frame ingester, catching up inline.
	writers.Add(1)
	go func() {
		defer writers.Done()
		vals := make([]float64, len(smallKeys))
		for r := 0; r < rounds; r++ {
			ts := time.Duration(r) * 15 * time.Second
			for i := range vals {
				vals[i] = float64(r+i) + 0.5
			}
			if err := small.Append(ts, vals); err != nil {
				t.Error(err)
				return
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
				key := frameKeys[i%len(frameKeys)]
				if i%2 == 1 {
					key = smallKeys[(i+g)%len(smallKeys)]
				}
				res := []Resolution{ResRaw, ResMinute, ResQuarter, ResHour}[i/2%4]
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
					// on both frames.
					if _, err := s.DailyAverages(frameKeys[0]); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.HourlyPattern(smallKeys[g%len(smallKeys)]); err != nil {
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
	// Every small-frame sample reached the levels exactly once.
	for i, key := range smallKeys {
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

// TestFramesDoNotWaitOnEachOther pins the lock order of the concurrency
// contract: no call holds the registry lock while it takes a frame's
// lock, so a frame whose lock is held, as by a writer in a long
// catch-up, stalls no call on any other frame, nor Keys, nor the
// registration of a new frame. Stats walks every frame, so it waits for
// the held one; it must not hold the registry lock while it waits.
func TestFramesDoNotWaitOnEachOther(t *testing.T) {
	s := mustStore(t, noRetention())
	busy := mustFrame(t, s, "busy/a", "busy/b")
	fw := mustFrame(t, s, "f/a", "f/b")
	for r := 0; r < 3; r++ {
		ts := time.Duration(r) * 15 * time.Second
		mustAppend(t, busy, ts, 1, 2)
		mustAppend(t, fw, ts, 1, 2)
	}
	if fw.folded == len(fw.raw) {
		t.Fatal("no frame round pending")
	}
	busy.mu.Lock()
	release := sync.OnceFunc(busy.mu.Unlock)
	defer release()
	statsDone := make(chan Stats, 1)
	go func() { statsDone <- s.Stats() }()
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"QueryRaw", func() error {
			bs, err := s.Query("f/a", 0, 1<<62, ResRaw)
			if err == nil && len(bs) != 3 {
				err = fmt.Errorf("%d raw buckets, want 3", len(bs))
			}
			return err
		}},
		{"QueryMinute", func() error {
			// The read catches f up on its pending rounds first.
			bs, err := s.Query("f/b", 0, 1<<62, ResMinute)
			if err == nil && (len(bs) != 1 || bs[0].Count != 3 || bs[0].Sum != 6) {
				err = fmt.Errorf("minute buckets %+v, want one of 3 rounds summing to 6", bs)
			}
			return err
		}},
		{"DailyAverages", func() error {
			days, err := s.DailyAverages("f/a")
			if err == nil && (len(days) != 1 || days[0] != 1) {
				err = fmt.Errorf("daily averages %v, want [1]", days)
			}
			return err
		}},
		{"Keys", func() error {
			if keys := s.Keys(); len(keys) != 4 {
				return fmt.Errorf("keys %v, want 4", keys)
			}
			return nil
		}},
		{"Frames", func() error {
			_, err := s.Frames([]string{"new/a"})
			return err
		}},
		{"Append", func() error {
			return fw.Append(45*time.Second, []float64{3, 4})
		}},
		{"AppendPar", func() error {
			pool := par.New(2)
			defer pool.Close()
			return fw.AppendPar(time.Minute, []float64{5, 6}, pool)
		}},
		{"LatestInto", func() error {
			buf := make([]float64, fw.Width())
			if ts, ok := fw.LatestInto(buf); !ok || ts != time.Minute || buf[1] != 6 {
				return fmt.Errorf("latest round %v %v at %v", buf, ok, ts)
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- c.call() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waited on another frame's lock")
			}
		})
	}
	release()
	select {
	case st := <-statsDone:
		if st.Keys < 4 {
			t.Errorf("stats count %d keys, want at least 4", st.Keys)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats still waiting after the frame's lock was released")
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
