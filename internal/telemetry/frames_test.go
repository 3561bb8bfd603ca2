package telemetry

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// frameEquivalentStores ingests the same synthetic rounds twice: once
// as rounds of one frame over all keys, and once point by point, each
// key its own one-column frame. It returns both stores for comparison.
func frameEquivalentStores(t *testing.T, cfg Config, keys []string, rounds int, step time.Duration) (framed, perKey *Store) {
	t.Helper()
	framed = mustStore(t, cfg)
	perKey = mustStore(t, cfg)
	fw := mustFrame(t, framed, keys...)
	solos := make([]*FrameWriter, len(keys))
	for k, key := range keys {
		solos[k] = mustFrame(t, perKey, key)
	}
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, len(keys))
	for r := 0; r < rounds; r++ {
		now := time.Duration(r) * step
		for k := range vals {
			vals[k] = rng.Float64()*100 - 20
		}
		mustAppend(t, fw, now, vals...)
		for k, solo := range solos {
			mustAppend(t, solo, now, vals[k])
		}
	}
	return framed, perKey
}

func requireSameBuckets(t *testing.T, got, want []Bucket, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bucket %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestFramesMatchPerPointIngest checks that a column of a wide frame is
// indistinguishable from the same values appended point by point to a
// one-column frame of their own: at every resolution, over full and
// partial ranges, and in the storage accounting and the key list. The
// steps cover both closed-bucket shapes: at 15 s every bucket holds
// several rounds, at 1 min the minute buckets hold one, and at 15 min
// the minute and quarter buckets hold one. A 7 min retention expires
// rows that single-round buckets share before the wider buckets close.
func TestFramesMatchPerPointIngest(t *testing.T) {
	keys := []string{"a/power", "a/util", "b/power", "b/util", "inlet"}
	for _, step := range []time.Duration{15 * time.Second, time.Minute, 15 * time.Minute} {
		for _, ret := range []time.Duration{0, 7 * time.Minute, time.Hour} {
			t.Run(fmt.Sprintf("step=%v/ret=%v", step, ret), func(t *testing.T) {
				framed, perKey := frameEquivalentStores(t, Config{RawRetention: ret}, keys, 300, step)
				for _, key := range keys {
					for _, res := range []Resolution{ResRaw, ResMinute, ResQuarter, ResHour, ResDay} {
						for _, span := range [][2]time.Duration{
							{0, 1 << 62},
							{40 * time.Minute, 3 * time.Hour},
							{90 * time.Minute, 91 * time.Minute},
							{40 * step, 200 * step},
						} {
							ctx := fmt.Sprintf("%s %v [%v,%v)", key, res, span[0], span[1])
							got, err := framed.Query(key, span[0], span[1], res)
							if err != nil {
								t.Fatal(ctx, err)
							}
							want, err := perKey.Query(key, span[0], span[1], res)
							if err != nil {
								t.Fatal(ctx, err)
							}
							requireSameBuckets(t, got, want, ctx)
						}
					}
				}
				if got, want := framed.Stats(), perKey.Stats(); got != want {
					t.Errorf("frame stats %+v, per-key stats %+v", got, want)
				}
				if got, want := framed.Keys(), perKey.Keys(); !slices.Equal(got, want) {
					t.Errorf("keys %v vs %v", got, want)
				}
			})
		}
	}
}

// TestFrameAllocationTracksRetention pins the frame's storage format: a
// run allocates about the bytes the store keeps (8 per retained raw
// point, at most 24 per bucket), because every round and every closed
// bucket of several rounds is one row allocated once at its exact size,
// a single-round bucket shares its round's row, and retention recycles
// raw rows. Storage regrown by copy allocates several times what it
// keeps, which the bound catches at every step.
func TestFrameAllocationTracksRetention(t *testing.T) {
	const (
		width   = 4096
		horizon = 6 * time.Hour
		bound   = 1.25
	)
	keys := make([]string, width)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	vals := make([]float64, width)
	for _, step := range []time.Duration{15 * time.Second, time.Minute, 15 * time.Minute} {
		t.Run(step.String(), func(t *testing.T) {
			s := mustStore(t, Config{RawRetention: time.Hour})
			fw, err := s.Frames(keys)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for now := time.Duration(0); now < horizon; now += step {
				for k := range vals {
					vals[k] = float64(k) + now.Minutes()
				}
				if err := fw.Append(now, vals); err != nil {
					t.Fatal(err)
				}
			}
			// Stats first, so the fold it forces is counted.
			st := s.Stats()
			runtime.ReadMemStats(&after)
			kept := float64(st.RawPoints*8 + st.AggBuckets*24)
			allocated := float64(after.TotalAlloc - before.TotalAlloc)
			t.Logf("allocated %.1f MB for %.1f MB kept (%.2fx)", allocated/1e6, kept/1e6, allocated/kept)
			if allocated > bound*kept {
				t.Errorf("allocated %.0f bytes for %.0f kept: %.2fx, want at most %.2fx", allocated, kept, allocated/kept, bound)
			}
		})
	}
}

// TestOneColumnFrameAllocationTracksRetention is the narrow twin of
// TestFrameAllocationTracksRetention: 256 keys, each sampled on its own
// schedule and so each a one-column frame, allocate about the bytes they
// keep. A one-column frame keeps 16 bytes per retained raw round (its
// timestamp and value) and 40 per bucket (start, count, sum, min and
// max), so per-round or per-bucket headers, and storage regrown by copy,
// both show against the bound.
func TestOneColumnFrameAllocationTracksRetention(t *testing.T) {
	const (
		keys    = 256
		horizon = 48 * time.Hour
		bound   = 1.5
	)
	for _, step := range []time.Duration{15 * time.Second, time.Minute, 15 * time.Minute} {
		t.Run(step.String(), func(t *testing.T) {
			s := mustStore(t, Config{RawRetention: time.Hour})
			fws := make([]*FrameWriter, keys)
			for k := range fws {
				fws[k] = mustFrame(t, s, fmt.Sprintf("k%03d", k))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var val [1]float64
			for now := time.Duration(0); now < horizon; now += step {
				for k, fw := range fws {
					val[0] = float64(k) + now.Minutes()
					if err := fw.Append(now, val[:]); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Stats first, so the fold it forces is counted.
			st := s.Stats()
			runtime.ReadMemStats(&after)
			kept := float64(st.RawPoints*16 + st.AggBuckets*40)
			allocated := float64(after.TotalAlloc - before.TotalAlloc)
			t.Logf("allocated %.1f MB for %.1f MB kept (%.2fx)", allocated/1e6, kept/1e6, allocated/kept)
			if allocated > bound*kept {
				t.Errorf("allocated %.0f bytes for %.0f kept: %.2fx, want at most %.2fx", allocated, kept, allocated/kept, bound)
			}
		})
	}
}

// TestManyOneColumnFrames registers 10,000 keys, each sampled on its own
// schedule and so each a one-column frame. The last thousand frames must
// cost no more to register than the first thousand: a registration that
// copied the registry would allocate in proportion to its size. The
// store then answers for every key.
func TestManyOneColumnFrames(t *testing.T) {
	const n, window = 10000, 1000
	s := mustStore(t, DefaultConfig())
	fws := make([]*FrameWriter, 0, n)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("k%05d", i)
	}
	register := func(upTo int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for len(fws) < upTo {
			fws = append(fws, mustFrame(t, s, names[len(fws)]))
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := register(window)
	register(n - window)
	last := register(n)
	t.Logf("registering frames 1-%d allocated %d bytes, frames %d-%d %d bytes", window, first, n-window+1, n, last)
	if last > 2*first {
		t.Errorf("the last %d registrations allocated %d bytes against %d for the first %d", window, last, first, window)
	}
	for i, fw := range fws {
		mustAppend(t, fw, 0, float64(i))
		mustAppend(t, fw, time.Minute, float64(i)+1)
	}
	// Per frame: two raw rounds, and a closed and an open minute bucket
	// plus one quarter, hour and day bucket.
	if got, want := s.Stats(), (Stats{Keys: n, RawPoints: 2 * n, AggBuckets: 5 * n}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if got := s.Keys(); !slices.Equal(got, names) {
		t.Errorf("keys: %d, want the %d registered in order", len(got), n)
	}
	bs, err := s.Query("k04321", 0, 1<<62, ResMinute)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 || bs[0].Sum != 4321 || bs[1].Sum != 4322 {
		t.Errorf("minute buckets of k04321: %+v", bs)
	}
}

// TestFramesDerivedQueries checks that the analysis layer answers the
// same on a column of a wide frame as on a one-column frame fed the same
// points.
func TestFramesDerivedQueries(t *testing.T) {
	framed, perKey := frameEquivalentStores(t, noRetention(), []string{"x", "y"}, 3000, time.Minute)
	t.Run("DailyAverages", func(t *testing.T) {
		for _, key := range []string{"x", "y"} {
			fd, err := framed.DailyAverages(key)
			if err != nil {
				t.Fatal(err)
			}
			pd, err := perKey.DailyAverages(key)
			if err != nil {
				t.Fatal(err)
			}
			if len(fd) != 3 || !slices.Equal(fd, pd) {
				t.Fatalf("%s: daily averages %v vs %v", key, fd, pd)
			}
		}
	})
	t.Run("HourlyPattern", func(t *testing.T) {
		for _, key := range []string{"x", "y"} {
			fh, err := framed.HourlyPattern(key)
			if err != nil {
				t.Fatal(err)
			}
			ph, err := perKey.HourlyPattern(key)
			if err != nil {
				t.Fatal(err)
			}
			if fh != ph {
				t.Fatalf("%s: hourly pattern %v vs %v", key, fh, ph)
			}
		}
	})
	t.Run("CorrelateDetrended", func(t *testing.T) {
		fc, err := framed.CorrelateDetrended("x", "y", ResMinute, 61)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := perKey.CorrelateDetrended("x", "y", ResMinute, 61)
		if err != nil {
			t.Fatal(err)
		}
		if fc != pc {
			t.Fatalf("correlation %v vs %v", fc, pc)
		}
	})
	t.Run("Anomalies", func(t *testing.T) {
		for _, key := range []string{"x", "y"} {
			fa, err := framed.Anomalies(key, 1.5)
			if err != nil {
				t.Fatal(err)
			}
			pa, err := perKey.Anomalies(key, 1.5)
			if err != nil {
				t.Fatal(err)
			}
			if len(fa) == 0 || !slices.Equal(fa, pa) {
				t.Fatalf("%s: %d anomalies vs %d", key, len(fa), len(pa))
			}
		}
	})
}

func TestFramesValidation(t *testing.T) {
	s := mustStore(t, noRetention())
	if _, err := s.Frames(nil); err == nil {
		t.Error("empty frame should error")
	}
	if _, err := s.Frames([]string{"dup", "dup"}); err == nil {
		t.Error("duplicate frame keys should error")
	}
	fw, err := s.Frames([]string{"f1", "f2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Frames([]string{"f2", "f3"}); err == nil {
		t.Error("frame over an already-framed key should error")
	}
	// A frame that fails on its last key registers none of its keys, so
	// the same keys without the bad one still form a frame.
	for _, bad := range []string{"g1", "f1"} {
		if _, err := s.Frames([]string{"g1", "g2", bad}); err == nil {
			t.Errorf("frame ending in %q should error", bad)
		}
		if _, err := s.Query("g1", 0, 1<<62, ResRaw); err == nil {
			t.Errorf("failed frame ending in %q registered g1", bad)
		}
	}
	if got, want := s.Keys(), []string{"f1", "f2"}; !slices.Equal(got, want) {
		t.Errorf("keys after failed frames %v, want %v", got, want)
	}
	if _, err := s.Frames([]string{"g1", "g2"}); err != nil {
		t.Errorf("frame over the keys of failed frames: %v", err)
	}
	if err := fw.Append(0, []float64{1}); err == nil {
		t.Error("short round should error")
	}
	if err := fw.Append(-time.Second, []float64{1, 2}); err == nil {
		t.Error("negative timestamp should error")
	}
	if err := fw.Append(time.Minute, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Append(time.Second, []float64{1, 2}); err == nil {
		t.Error("out-of-order round should error")
	}
}
