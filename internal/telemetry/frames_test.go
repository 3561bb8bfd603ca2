package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// frameEquivalentStores ingests the same synthetic rounds twice — once
// through a FrameWriter, once as per-point appends — and returns both
// stores for comparison.
func frameEquivalentStores(t *testing.T, cfg Config, keys []string, rounds int, step time.Duration) (framed, plain *Store) {
	t.Helper()
	framed = mustStore(t, cfg)
	plain = mustStore(t, cfg)
	fw, err := framed.Frames(keys)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, len(keys))
	for r := 0; r < rounds; r++ {
		now := time.Duration(r) * step
		for k := range vals {
			vals[k] = rng.Float64()*100 - 20
		}
		if err := fw.Append(now, vals); err != nil {
			t.Fatal(err)
		}
		for k, key := range keys {
			if err := plain.Append(key, now, vals[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return framed, plain
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

// TestFramesMatchPerPointIngest is the core contract: a framed key is
// indistinguishable from the same values appended point by point — at
// every resolution, over full and partial ranges, and in the storage
// accounting. The steps cover both closed-bucket shapes: at 15 s every
// bucket holds several rounds, at 1 min the minute buckets hold one, and
// at 15 min the minute and quarter buckets hold one.
func TestFramesMatchPerPointIngest(t *testing.T) {
	keys := []string{"a/power", "a/util", "b/power", "b/util", "inlet"}
	for _, step := range []time.Duration{15 * time.Second, time.Minute, 15 * time.Minute} {
		for _, cfg := range []Config{noRetention(), {RawInterval: 15 * time.Second, RawRetention: time.Hour, Shards: 4}} {
			framed, plain := frameEquivalentStores(t, cfg, keys, 300, step)
			for _, key := range keys {
				for _, res := range []Resolution{ResRaw, ResMinute, ResQuarter, ResHour, ResDay} {
					for _, span := range [][2]time.Duration{
						{0, 1 << 62},
						{40 * time.Minute, 3 * time.Hour},
						{90 * time.Minute, 91 * time.Minute},
						{40 * step, 200 * step},
					} {
						ctx := fmt.Sprintf("step=%v retention=%v %s %v [%v,%v)", step, cfg.RawRetention, key, res, span[0], span[1])
						got, err := framed.Query(key, span[0], span[1], res)
						if err != nil {
							t.Fatal(ctx, err)
						}
						want, err := plain.Query(key, span[0], span[1], res)
						if err != nil {
							t.Fatal(ctx, err)
						}
						requireSameBuckets(t, got, want, ctx)
					}
				}
			}
			if got, want := framed.Stats(), plain.Stats(); got != want {
				t.Errorf("step=%v retention=%v: frame stats %+v, plain stats %+v", step, cfg.RawRetention, got, want)
			}
			gotKeys, wantKeys := framed.Keys(), plain.Keys()
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("keys %v vs %v", gotKeys, wantKeys)
			}
			for i := range gotKeys {
				if gotKeys[i] != wantKeys[i] {
					t.Fatalf("keys %v vs %v", gotKeys, wantKeys)
				}
			}
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
			s := mustStore(t, Config{RawInterval: 15 * time.Second, RawRetention: time.Hour, Shards: 4})
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

// TestFramesDerivedQueries checks the analysis layer runs unchanged on
// framed series.
func TestFramesDerivedQueries(t *testing.T) {
	keys := []string{"x", "y"}
	framed, plain := frameEquivalentStores(t, noRetention(), keys, 3000, time.Minute)
	for _, key := range keys {
		fd, err := framed.DailyAverages(key)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := plain.DailyAverages(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(fd) != len(pd) {
			t.Fatalf("daily averages %d vs %d", len(fd), len(pd))
		}
		for i := range fd {
			if fd[i] != pd[i] {
				t.Fatalf("daily average %d: %v vs %v", i, fd[i], pd[i])
			}
		}
		fh, err := framed.HourlyPattern(key)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := plain.HourlyPattern(key)
		if err != nil {
			t.Fatal(err)
		}
		if fh != ph {
			t.Fatalf("hourly pattern mismatch: %v vs %v", fh, ph)
		}
	}
	fc, err := framed.CorrelateDetrended("x", "y", ResMinute, 61)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := plain.CorrelateDetrended("x", "y", ResMinute, 61)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fc-pc) != 0 {
		t.Fatalf("correlation %v vs %v", fc, pc)
	}
}

func TestFramesValidation(t *testing.T) {
	s := mustStore(t, noRetention())
	if _, err := s.Frames(nil); err == nil {
		t.Error("empty frame should error")
	}
	if _, err := s.Frames([]string{"dup", "dup"}); err == nil {
		t.Error("duplicate frame keys should error")
	}
	if err := s.Append("taken", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Frames([]string{"taken"}); err == nil {
		t.Error("frame over an existing plain series should error")
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
	for _, bad := range []string{"g1", "taken", "f1"} {
		if _, err := s.Frames([]string{"g1", "g2", bad}); err == nil {
			t.Errorf("frame ending in %q should error", bad)
		}
		if _, err := s.Query("g1", 0, 1<<62, ResRaw); err == nil {
			t.Errorf("failed frame ending in %q registered g1", bad)
		}
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
	if err := s.Append("f1", 0, 1); err == nil {
		t.Error("plain append to a framed key should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("Appender on a framed key should panic")
		}
	}()
	s.Appender("f1")
}

// TestBatchMatchesPlainAppend checks the burst path is behaviourally
// identical to per-point Appender appends.
func TestBatchMatchesPlainAppend(t *testing.T) {
	cfg := Config{RawInterval: 15 * time.Second, RawRetention: 30 * time.Minute, Shards: 4}
	batched := mustStore(t, cfg)
	plain := mustStore(t, cfg)
	keys := []string{"k0", "k1", "k2"}
	var apps []*Appender
	for _, k := range keys {
		apps = append(apps, batched.Appender(k))
	}
	for r := 0; r < 200; r++ {
		now := time.Duration(r) * time.Minute
		b := batched.BeginBatch()
		for i, k := range keys {
			v := float64(r * (i + 1))
			if err := b.Append(apps[i], now, v); err != nil {
				t.Fatal(err)
			}
			if err := plain.Append(k, now, v); err != nil {
				t.Fatal(err)
			}
		}
		b.End()
	}
	if got, want := batched.Stats(), plain.Stats(); got != want {
		t.Fatalf("batch stats %+v, plain stats %+v", got, want)
	}
	for _, k := range keys {
		for _, res := range []Resolution{ResRaw, ResMinute, ResHour} {
			got, err := batched.Query(k, 0, 1<<62, res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Query(k, 0, 1<<62, res)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBuckets(t, got, want, fmt.Sprintf("%s %v", k, res))
		}
	}
}

func TestBatchRejectsForeignAppender(t *testing.T) {
	s1 := mustStore(t, noRetention())
	s2 := mustStore(t, noRetention())
	a := s2.Appender("elsewhere")
	b := s1.BeginBatch()
	defer b.End()
	if err := b.Append(a, 0, 1); err == nil {
		t.Error("appender from another store should be rejected")
	}
}
