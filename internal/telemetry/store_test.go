package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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

// mustFrame registers keys as one frame of s.
func mustFrame(t *testing.T, s *Store, keys ...string) *FrameWriter {
	t.Helper()
	fw, err := s.Frames(keys)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// mustAppend appends one round to fw.
func mustAppend(t *testing.T, fw *FrameWriter, ts time.Duration, vals ...float64) {
	t.Helper()
	if err := fw.Append(ts, vals); err != nil {
		t.Fatal(err)
	}
}

func noRetention() Config {
	return Config{RawRetention: 0}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewStore(Config{RawRetention: -1}); err == nil {
		t.Error("negative retention should error")
	}
	if _, err := NewStore(DefaultConfig()); err != nil {
		t.Error("default config rejected")
	}
}

func TestAppendAndRawQuery(t *testing.T) {
	s := mustStore(t, noRetention())
	fw := mustFrame(t, s, "cpu")
	for i := 0; i < 10; i++ {
		mustAppend(t, fw, time.Duration(i)*15*time.Second, float64(i))
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
	fw := mustFrame(t, s, "k")
	if err := fw.Append(-time.Second, []float64{1}); err == nil {
		t.Error("negative time should error")
	}
	mustAppend(t, fw, time.Minute, 1)
	if err := fw.Append(time.Second, []float64{2}); err == nil {
		t.Error("out-of-order append should error")
	}
	// Equal timestamps are fine (a key can be read twice in an instant).
	if err := fw.Append(time.Minute, []float64{3}); err != nil {
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
	fw := mustFrame(t, s, "m")
	var wantSum float64
	const n = 4 * 24 * 60 * 4 // 4 days of 15s samples
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i)/100) + 2
		wantSum += v
		mustAppend(t, fw, time.Duration(i)*15*time.Second, v)
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
	s := mustStore(t, Config{RawRetention: 10 * time.Minute})
	fw := mustFrame(t, s, "m")
	const n = 24 * 60 * 4 // one day of 15s samples
	for i := 0; i < n; i++ {
		mustAppend(t, fw, time.Duration(i)*15*time.Second, 1)
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
	fw := mustFrame(t, s, "m")
	// Two days where hour h has value h.
	for d := 0; d < 2; d++ {
		for h := 0; h < 24; h++ {
			for q := 0; q < 4; q++ {
				ts := time.Duration(d)*24*time.Hour + time.Duration(h)*time.Hour + time.Duration(q)*15*time.Minute
				mustAppend(t, fw, ts, float64(h))
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
	fw := mustFrame(t, s, "m")
	// Day 0 at value 1, day 1 at value 3.
	for d := 0; d < 2; d++ {
		for i := 0; i < 24; i++ {
			mustAppend(t, fw, time.Duration(d)*24*time.Hour+time.Duration(i)*time.Hour, float64(1+2*d))
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
	fw := mustFrame(t, s, "a", "b")
	// Both keys share a rising trend; their *residuals* are opposite.
	for i := 0; i < 240; i++ {
		trend := float64(i) * 0.1
		wiggle := math.Sin(float64(i) / 3)
		mustAppend(t, fw, time.Duration(i)*time.Minute, trend+wiggle, trend-wiggle)
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
	fw := mustFrame(t, s, "m")
	// Flat signal with one big spike.
	spikeAt := 30 * time.Hour
	for i := 0; i < 48*60; i++ {
		ts := time.Duration(i) * time.Minute
		v := 10.0
		if ts == spikeAt {
			v = 100
		}
		mustAppend(t, fw, ts, v)
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
	flat := mustFrame(t, s, "flat")
	for i := 0; i < 100; i++ {
		mustAppend(t, flat, time.Duration(i)*time.Minute, 5)
	}
	as, err = s.Anomalies("flat", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 0 {
		t.Errorf("flat series anomalies = %d, want 0", len(as))
	}
}

// TestKeysSorted checks Keys sorts across frames, not by frame or
// column.
func TestKeysSorted(t *testing.T) {
	s := mustStore(t, noRetention())
	mustFrame(t, s, "zeta", "alpha")
	mustFrame(t, s, "mid")
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "alpha" || keys[1] != "mid" || keys[2] != "zeta" {
		t.Errorf("Keys = %v", keys)
	}
}

// TestConcurrentIngestion races frame registration against ingestion
// and reads: each of 8 writers registers its own frame, adding its keys
// to the registry map while the others append rounds, and a reader loops
// over Keys, Stats and Query meanwhile. Every key Keys returns must
// answer Query.
func TestConcurrentIngestion(t *testing.T) {
	s := mustStore(t, DefaultConfig())
	const workers = 8
	const perWorker = 2000
	errs := make(chan error, workers+1)
	var stop atomic.Bool
	reader := make(chan struct{})
	go func() {
		defer close(reader)
		for i := 0; i == 0 || !stop.Load(); i++ {
			res := []Resolution{ResRaw, ResHour}[i%2]
			for _, key := range s.Keys() {
				if _, err := s.Query(key, 0, 1<<62, res); err != nil {
					errs <- err
					return
				}
			}
			if st := s.Stats(); st.Keys > workers {
				errs <- fmt.Errorf("stats count %d keys of %d frames", st.Keys, workers)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fw, err := s.Frames([]string{fmt.Sprintf("srv%d/cpu", w)})
			if err != nil {
				errs <- err
				return
			}
			row := make([]float64, 1)
			for i := 0; i < perWorker; i++ {
				row[0] = float64(i)
				if err := fw.Append(time.Duration(i)*15*time.Second, row); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	<-reader
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Keys != workers {
		t.Errorf("keys = %d, want %d", st.Keys, workers)
	}
	// Aggregates account for every appended round.
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
	b := Bucket{Count: 4, Sum: 10}
	if b.Mean() != 2.5 {
		t.Errorf("Mean = %v", b.Mean())
	}
	if (Bucket{}).Mean() != 0 {
		t.Error("empty bucket mean should be 0")
	}
}

func TestRetentionCompactionBoundsMemory(t *testing.T) {
	interval := time.Second
	const window = 512
	s := mustStore(t, Config{RawRetention: window * interval})
	fw := mustFrame(t, s, "k")
	const n = 20000
	for i := 0; i < n; i++ {
		mustAppend(t, fw, time.Duration(i)*interval, float64(i))
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
	// The band must stay bounded near the window size, not grow with
	// total appends: expired row headers are compacted away and expired
	// rows are reused.
	if got := cap(fw.raw); got > 3*window {
		t.Fatalf("band has room for %d rounds for a %d-round window", got, window)
	}
	if got := len(fw.spare); got > window {
		t.Fatalf("%d spare rows for a %d-round window", got, window)
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

// TestRawQueryAllocatesOnce pins the raw read path: Query bounds the
// range by binary search and allocates its result once, at exact size,
// for a one-column frame and for a column of a wider one alike.
func TestRawQueryAllocatesOnce(t *testing.T) {
	s := mustStore(t, Config{RawRetention: time.Hour})
	solo := mustFrame(t, s, "solo")
	fw := mustFrame(t, s, "f0", "f1")
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		ts := time.Duration(i) * 15 * time.Second
		mustAppend(t, solo, ts, float64(i))
		mustAppend(t, fw, ts, float64(i), -float64(i))
	}
	last := time.Duration(rounds-1) * 15 * time.Second
	var err error
	for _, key := range []string{"solo", "f1"} {
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
