package telemetry

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func mustStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func noRetention() Config {
	return Config{RawInterval: 15 * time.Second, RawRetention: 0, Shards: 4}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewStore(Config{RawInterval: 0, Shards: 1}); err == nil {
		t.Error("zero interval should error")
	}
	if _, err := NewStore(Config{RawInterval: time.Second, RawRetention: -1, Shards: 1}); err == nil {
		t.Error("negative retention should error")
	}
	if _, err := NewStore(Config{RawInterval: time.Second, Shards: 0}); err == nil {
		t.Error("zero shards should error")
	}
	if _, err := NewStore(DefaultConfig()); err != nil {
		t.Error("default config rejected")
	}
}

func TestAppendAndRawQuery(t *testing.T) {
	s := mustStore(t, noRetention())
	for i := 0; i < 10; i++ {
		if err := s.Append("cpu", time.Duration(i)*15*time.Second, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	bs, err := s.Query("cpu", 0, time.Hour, ResRaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 10 {
		t.Fatalf("raw buckets = %d, want 10", len(bs))
	}
	if bs[3].Sum != 3 || bs[3].Count != 1 {
		t.Errorf("bucket 3 = %+v", bs[3])
	}
	// Range filtering.
	bs, err = s.Query("cpu", 30*time.Second, 60*time.Second, ResRaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Errorf("windowed raw buckets = %d, want 2", len(bs))
	}
}

func TestAppendErrors(t *testing.T) {
	s := mustStore(t, noRetention())
	if err := s.Append("k", -time.Second, 1); err == nil {
		t.Error("negative time should error")
	}
	if err := s.Append("k", time.Minute, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("k", time.Second, 2); err == nil {
		t.Error("out-of-order append should error")
	}
	// Equal timestamps are fine (multiple counters can share an instant).
	if err := s.Append("k", time.Minute, 3); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
	if _, err := s.Query("missing", 0, time.Hour, ResRaw); err == nil {
		t.Error("unknown key should error")
	}
	if _, err := s.Query("k", time.Hour, 0, ResRaw); err == nil {
		t.Error("inverted range should error")
	}
	if _, err := s.Query("k", 0, time.Hour, Resolution(99)); err == nil {
		t.Error("unknown resolution should error")
	}
}

func TestAggregationPyramidConsistency(t *testing.T) {
	// Invariant: every level's total Sum and Count equal the raw totals.
	s := mustStore(t, noRetention())
	var wantSum float64
	const n = 4 * 24 * 60 * 4 // 4 days of 15s samples
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i)/100) + 2
		wantSum += v
		if err := s.Append("m", time.Duration(i)*15*time.Second, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, res := range []Resolution{ResMinute, ResQuarter, ResHour, ResDay} {
		bs, err := s.Query("m", 0, 1<<62, res)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var count int64
		for _, b := range bs {
			sum += b.Sum
			count += b.Count
			if b.Min > b.Max {
				t.Fatalf("%v bucket min %v > max %v", res, b.Min, b.Max)
			}
		}
		if count != n {
			t.Errorf("%v count = %d, want %d", res, count, n)
		}
		if math.Abs(sum-wantSum) > 1e-6*wantSum {
			t.Errorf("%v sum = %v, want %v", res, sum, wantSum)
		}
	}
	// Bucket counts shrink up the pyramid.
	counts := make([]int, 0, 4)
	for _, res := range []Resolution{ResMinute, ResQuarter, ResHour, ResDay} {
		bs, _ := s.Query("m", 0, 1<<62, res)
		counts = append(counts, len(bs))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] >= counts[i-1] {
			t.Errorf("pyramid not shrinking: %v", counts)
		}
	}
}

func TestBandRetentionDropsRawKeepsAggregates(t *testing.T) {
	cfg := Config{RawInterval: 15 * time.Second, RawRetention: 10 * time.Minute, Shards: 2}
	s := mustStore(t, cfg)
	const n = 24 * 60 * 4 // one day of 15s samples
	for i := 0; i < n; i++ {
		if err := s.Append("m", time.Duration(i)*15*time.Second, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.RawPoints > 10*4+4 {
		t.Errorf("raw points retained = %d, want ≈ 40 (10 min of 15s samples)", st.RawPoints)
	}
	if st.DroppedRaw == 0 {
		t.Error("no raw points dropped despite retention window")
	}
	if st.DroppedRaw+st.RawPoints != n {
		t.Errorf("dropped %d + retained %d != appended %d", st.DroppedRaw, st.RawPoints, n)
	}
	// Aggregates still cover the whole day.
	bs, err := s.Query("m", 0, 1<<62, ResHour)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 24 {
		t.Errorf("hour buckets = %d, want 24", len(bs))
	}
	// Storage reduction: aggregate buckets are far fewer than raw points.
	if st.AggBuckets >= n {
		t.Errorf("aggregation did not reduce storage: %d buckets for %d points", st.AggBuckets, n)
	}
}

func TestHourlyPattern(t *testing.T) {
	s := mustStore(t, noRetention())
	// Two days where hour h has value h.
	for d := 0; d < 2; d++ {
		for h := 0; h < 24; h++ {
			for q := 0; q < 4; q++ {
				ts := time.Duration(d)*24*time.Hour + time.Duration(h)*time.Hour + time.Duration(q)*15*time.Minute
				if err := s.Append("m", ts, float64(h)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pat, err := s.HourlyPattern("m")
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 24; h++ {
		if math.Abs(pat[h]-float64(h)) > 1e-9 {
			t.Errorf("pattern[%d] = %v, want %d", h, pat[h], h)
		}
	}
}

func TestDailyAverages(t *testing.T) {
	s := mustStore(t, noRetention())
	// Day 0 at value 1, day 1 at value 3.
	for d := 0; d < 2; d++ {
		for i := 0; i < 24; i++ {
			ts := time.Duration(d)*24*time.Hour + time.Duration(i)*time.Hour
			if err := s.Append("m", ts, float64(1+2*d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	days, err := s.DailyAverages("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 2 || days[0] != 1 || days[1] != 3 {
		t.Errorf("daily averages = %v, want [1 3]", days)
	}
}

func TestCorrelateDetrended(t *testing.T) {
	s := mustStore(t, noRetention())
	// Both keys share a rising trend; their *residuals* are opposite.
	for i := 0; i < 240; i++ {
		ts := time.Duration(i) * time.Minute
		trend := float64(i) * 0.1
		wiggle := math.Sin(float64(i) / 3)
		if err := s.Append("a", ts, trend+wiggle); err != nil {
			t.Fatal(err)
		}
		if err := s.Append("b", ts, trend-wiggle); err != nil {
			t.Fatal(err)
		}
	}
	// Raw correlation is dominated by the shared trend (strongly
	// positive); detrended correlation exposes the opposition.
	c, err := s.CorrelateDetrended("a", "b", ResMinute, 21)
	if err != nil {
		t.Fatal(err)
	}
	if c > -0.8 {
		t.Errorf("detrended correlation = %v, want strongly negative", c)
	}
	if _, err := s.CorrelateDetrended("a", "missing", ResMinute, 21); err == nil {
		t.Error("unknown key should error")
	}
	if _, err := s.CorrelateDetrended("a", "b", ResMinute, 100000); err == nil {
		t.Error("window beyond data should error")
	}
}

func TestAnomalies(t *testing.T) {
	s := mustStore(t, noRetention())
	// Flat signal with one big spike.
	spikeAt := 30 * time.Hour
	for i := 0; i < 48*60; i++ {
		ts := time.Duration(i) * time.Minute
		v := 10.0
		if ts == spikeAt {
			v = 100
		}
		if err := s.Append("m", ts, v); err != nil {
			t.Fatal(err)
		}
	}
	as, err := s.Anomalies("m", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 {
		t.Fatalf("anomalies = %d, want exactly the spike; got %+v", len(as), as)
	}
	if as[0].At != spikeAt {
		t.Errorf("anomaly at %v, want %v", as[0].At, spikeAt)
	}
	if as[0].Score < 5 {
		t.Errorf("anomaly score = %v, want >= 5", as[0].Score)
	}
	if _, err := s.Anomalies("m", 0); err == nil {
		t.Error("zero threshold should error")
	}
	// A constant series has no anomalies (sd = 0 path).
	for i := 0; i < 100; i++ {
		if err := s.Append("flat", time.Duration(i)*time.Minute, 5); err != nil {
			t.Fatal(err)
		}
	}
	as, err = s.Anomalies("flat", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 0 {
		t.Errorf("flat series anomalies = %d, want 0", len(as))
	}
}

func TestKeysSorted(t *testing.T) {
	s := mustStore(t, noRetention())
	for _, k := range []string{"zeta", "alpha", "mid"} {
		if err := s.Append(k, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "alpha" || keys[2] != "zeta" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestConcurrentIngestion(t *testing.T) {
	s := mustStore(t, DefaultConfig())
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("srv%d/cpu", w)
			for i := 0; i < perWorker; i++ {
				if err := s.Append(key, time.Duration(i)*15*time.Second, float64(i)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Keys != workers {
		t.Errorf("keys = %d, want %d", st.Keys, workers)
	}
	// Aggregates account for every appended point.
	var total int64
	for w := 0; w < workers; w++ {
		bs, err := s.Query(fmt.Sprintf("srv%d/cpu", w), 0, 1<<62, ResHour)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			total += b.Count
		}
	}
	if total != workers*perWorker {
		t.Errorf("aggregated count = %d, want %d", total, workers*perWorker)
	}
}

func TestResolutionHelpers(t *testing.T) {
	for res, want := range map[Resolution]string{
		ResRaw: "raw", ResMinute: "1m", ResQuarter: "15m", ResHour: "1h", ResDay: "1d",
		Resolution(9): "res(9)",
	} {
		if res.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(res), res.String(), want)
		}
	}
	if iv, err := ResQuarter.Interval(15 * time.Second); err != nil || iv != 15*time.Minute {
		t.Errorf("ResQuarter.Interval = %v, %v", iv, err)
	}
	if iv, err := ResRaw.Interval(15 * time.Second); err != nil || iv != 15*time.Second {
		t.Errorf("ResRaw.Interval = %v, %v", iv, err)
	}
	if _, err := Resolution(99).Interval(time.Second); err == nil {
		t.Error("unknown resolution interval should error")
	}
	b := Bucket{Count: 4, Sum: 10}
	if b.Mean() != 2.5 {
		t.Errorf("Mean = %v", b.Mean())
	}
	if (Bucket{}).Mean() != 0 {
		t.Error("empty bucket mean should be 0")
	}
}

func TestAppenderMatchesByKeyIngest(t *testing.T) {
	mk := func() *Store {
		s, err := NewStore(Config{RawInterval: 15 * time.Second, RawRetention: time.Hour, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	byKey, byHandle := mk(), mk()
	a := byHandle.Appender("srv/cpu")
	if a.Key() != "srv/cpu" {
		t.Fatalf("handle key = %q", a.Key())
	}
	for i := 0; i < 2000; i++ {
		ts := time.Duration(i) * 15 * time.Second
		v := float64(i % 97)
		if err := byKey.Append("srv/cpu", ts, v); err != nil {
			t.Fatal(err)
		}
		if err := a.Append(ts, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, res := range []Resolution{ResRaw, ResMinute, ResHour} {
		b1, err := byKey.Query("srv/cpu", 0, 1<<62, res)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := byHandle.Query("srv/cpu", 0, 1<<62, res)
		if err != nil {
			t.Fatal(err)
		}
		if len(b1) != len(b2) {
			t.Fatalf("%v: %d vs %d buckets", res, len(b1), len(b2))
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("%v bucket %d: %+v vs %+v", res, i, b1[i], b2[i])
			}
		}
	}
	s1, s2 := byKey.Stats(), byHandle.Stats()
	if s1 != s2 {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
}

func TestAppenderRejectsOutOfOrderAndNegative(t *testing.T) {
	s, err := NewStore(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := s.Appender("k")
	if err := a.Append(-time.Second, 1); err == nil {
		t.Error("negative timestamp accepted")
	}
	if err := a.Append(time.Minute, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(time.Second, 1); err == nil {
		t.Error("out-of-order sample accepted through handle")
	}
	// The same-key by-key path shares the series and sees the regression
	// too.
	if err := s.Append("k", time.Second, 1); err == nil {
		t.Error("out-of-order sample accepted through store after handle append")
	}
}

func TestRetentionCompactionBoundsMemory(t *testing.T) {
	interval := time.Second
	const window = 512
	s, err := NewStore(Config{RawInterval: interval, RawRetention: window * interval, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := s.Appender("k")
	const n = 20000
	for i := 0; i < n; i++ {
		if err := a.Append(time.Duration(i)*interval, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// Window is [t-ret, t]: the cutoff is exclusive, so window+1 points
	// survive.
	if st.RawPoints != window+1 {
		t.Fatalf("retained %d raw points, want %d", st.RawPoints, window+1)
	}
	if st.DroppedRaw != n-(window+1) {
		t.Fatalf("dropped %d, want %d", st.DroppedRaw, n-(window+1))
	}
	// The backing slice must stay bounded near the window size, not grow
	// with total appends: expired points are reclaimed whenever it fills.
	ser := s.shardFor("k").series["k"]
	if got := cap(ser.raw); got > 3*window {
		t.Fatalf("backing slice has room for %d points for a %d-point window", got, window)
	}
	// And the retained view matches what Query sees.
	bs, err := s.Query("k", 0, 1<<62, ResRaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != window+1 {
		t.Fatalf("raw query returned %d points, want %d", len(bs), window+1)
	}
	if bs[0].Start != time.Duration(n-window-1)*interval {
		t.Fatalf("oldest retained point at %v", bs[0].Start)
	}
}

// TestSeriesAllocationTracksRetention is the per-point twin of
// TestFrameAllocationTracksRetention: a run allocates about the bytes
// the store keeps (16 per retained raw point, 40 per bucket), because
// closed buckets go in chunks allocated once at their final size and the
// raw band is reclaimed in place once it has grown to its window.
// Storage regrown by copy allocates several times what it keeps.
func TestSeriesAllocationTracksRetention(t *testing.T) {
	const (
		keys    = 256
		horizon = 48 * time.Hour
		bound   = 1.5
	)
	for _, step := range []time.Duration{15 * time.Second, time.Minute, 15 * time.Minute} {
		t.Run(step.String(), func(t *testing.T) {
			s := mustStore(t, Config{RawInterval: 15 * time.Second, RawRetention: time.Hour, Shards: 4})
			apps := make([]*Appender, keys)
			for k := range apps {
				apps[k] = s.Appender(fmt.Sprintf("k%03d", k))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for now := time.Duration(0); now < horizon; now += step {
				for k, a := range apps {
					if err := a.Append(now, float64(k)+now.Minutes()); err != nil {
						t.Fatal(err)
					}
				}
			}
			runtime.ReadMemStats(&after)
			st := s.Stats()
			kept := float64(st.RawPoints*16 + st.AggBuckets*40)
			allocated := float64(after.TotalAlloc - before.TotalAlloc)
			t.Logf("allocated %.1f MB for %.1f MB kept (%.2fx)", allocated/1e6, kept/1e6, allocated/kept)
			if allocated > bound*kept {
				t.Errorf("allocated %.0f bytes for %.0f kept: %.2fx, want at most %.2fx", allocated, kept, allocated/kept, bound)
			}
		})
	}
}

// TestRawQueryAllocatesOnce pins the raw read path: Query bounds the
// range by binary search and allocates its result once, at exact size,
// for a per-point series and for a frame column alike.
func TestRawQueryAllocatesOnce(t *testing.T) {
	s := mustStore(t, Config{RawInterval: 15 * time.Second, RawRetention: time.Hour, Shards: 4})
	a := s.Appender("plain")
	fw, err := s.Frames([]string{"f0", "f1"})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		ts := time.Duration(i) * 15 * time.Second
		if err := a.Append(ts, float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := fw.Append(ts, []float64{float64(i), -float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	last := time.Duration(rounds-1) * 15 * time.Second
	for _, key := range []string{"plain", "f1"} {
		for _, span := range []struct {
			from, to time.Duration
			want     int
		}{
			{0, 1 << 62, 241},
			{last - 30*time.Minute, last, 120},
		} {
			var bs []Bucket
			allocs := testing.AllocsPerRun(50, func() {
				bs, err = s.Query(key, span.from, span.to, ResRaw)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(bs) != span.want || cap(bs) != span.want {
				t.Errorf("%s [%v, %v): %d buckets in capacity %d, want %d", key, span.from, span.to, len(bs), cap(bs), span.want)
			}
			if allocs != 1 {
				t.Errorf("%s [%v, %v): raw query allocates %v times, want 1", key, span.from, span.to, allocs)
			}
		}
	}
}
