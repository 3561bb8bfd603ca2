// Package telemetry is the data-management substrate of §5.3. A 10,000
// server fleet with 100 counters sampled every 15 seconds produces 2.4
// million points per minute; the same data serves long-term trends, daily
// usage patterns, load-balancer correlation after detrending, and anomaly
// detection. The paper's prescription — "preprocessing and indexing the
// data into multiple scales can speed up the query significantly. At the
// same time, raw data out of these bands can be considered as noise and
// be eliminated" — is implemented here as a streaming multi-resolution
// aggregation pyramid with raw-band retention.
//
// # Concurrency contract
//
// A Store is safe for concurrent use: any number of goroutines may mix
// appends (Store.Append, Appender.Append, FrameWriter.Append, Batch
// bursts) with reads (Query, Stats, Keys, the derived analyses, and
// FrameWriter.LatestInto). Internally the store is lock-sharded by key;
// framed keys are guarded by their FrameWriter's own lock and never
// touch the shard locks, so scraping a framed key (Query or LatestInto)
// stays wait-free with respect to BeginBatch bursts, which hold every
// shard lock for their duration. The frame registry lock is always
// acquired before any shard lock, and no path holds a shard lock while
// acquiring another store lock, so the lock order is acyclic.
//
// An append, per-point or framed, writes only the raw band; the pyramid
// levels catch up on what they have not seen when the band fills or
// when a reader needs them. Reads of the levels (Query at an aggregate
// resolution, Stats, the derived analyses) therefore fold pending
// samples. Each shard lock is a plain mutex: readers of one shard
// serialize with each other as well as with its appenders. A
// FrameWriter's aggregate reads and Stats take the writer's lock
// exclusively; LatestInto and raw-resolution reads of framed keys take
// it shared, so live scrapes of the latest round run concurrently.
//
// Reads are internally consistent but only per call: a Query observes
// one atomic state of its series (no torn open-tail buckets), while a
// sequence of calls (e.g. Stats then Query, or the multi-Query derived
// analyses) may straddle concurrent appends. Per-key sample ordering
// remains the appender's obligation: timestamps per key (and per frame)
// must be non-decreasing regardless of which goroutine delivers them.
// The one exception to general thread-safety is Batch itself: a Batch
// value must stay on the goroutine that began it, and End must be
// called promptly.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// Resolution names one level of the aggregation pyramid.
type Resolution int

// Pyramid levels, finest first.
const (
	ResRaw Resolution = iota + 1
	ResMinute
	ResQuarter
	ResHour
	ResDay
)

// String renders the resolution.
func (r Resolution) String() string {
	switch r {
	case ResRaw:
		return "raw"
	case ResMinute:
		return "1m"
	case ResQuarter:
		return "15m"
	case ResHour:
		return "1h"
	case ResDay:
		return "1d"
	default:
		return fmt.Sprintf("res(%d)", int(r))
	}
}

// Interval returns the bucket width of a resolution given the raw
// sampling interval.
func (r Resolution) Interval(raw time.Duration) (time.Duration, error) {
	switch r {
	case ResRaw:
		return raw, nil
	case ResMinute:
		return time.Minute, nil
	case ResQuarter:
		return 15 * time.Minute, nil
	case ResHour:
		return time.Hour, nil
	case ResDay:
		return 24 * time.Hour, nil
	default:
		return 0, fmt.Errorf("telemetry: unknown resolution %d", int(r))
	}
}

// Bucket is one aggregated interval.
type Bucket struct {
	// Start is the bucket's inclusive start time.
	Start time.Duration
	// Count, Sum, Min, Max summarize the folded samples.
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns Sum/Count (0 for an empty bucket).
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// point is one raw sample.
type point struct {
	t time.Duration
	v float64
}

// chunkLen is the number of closed buckets in one chunk of a level. 32
// buckets are 1,280 bytes, one of the runtime's size classes, so a chunk
// is allocated at exactly its final size.
const chunkLen = 32

// level is one aggregation level of a key's pyramid: an open tail
// bucket (cur) and the closed buckets before it. Points reach a level
// only through foldRun, in runs of consecutive raw points, never one
// append at a time.
//
// Closed buckets go in fixed-size chunks, each allocated once at its
// final size when the first bucket lands in it and never regrown:
// closing a bucket copies no earlier bucket, and growing the level
// copies only chunk pointers.
type level struct {
	width time.Duration
	// curEnd caches cur's exclusive end time (zero while the level is
	// empty). Timestamps per key are non-decreasing, so a sample lands
	// either in cur or in a new bucket past it; the cached end turns the
	// common tail hit into one comparison, no division.
	curEnd time.Duration
	cur    Bucket // open tail bucket; empty iff curEnd == 0
	// Closed buckets, dense and in time order: bucket i is
	// chunks[i/chunkLen][i%chunkLen], and n counts them.
	chunks []*[chunkLen]Bucket
	n      int
}

// foldRun folds ps, which are in time order and no earlier than any
// point the level has seen, holding the open bucket in locals for the
// run.
// Each bucket still adds its points one by one in time order, so its
// Sum, Count, Min and Max do not depend on how the points were split
// into runs.
func (l *level) foldRun(ps []point) {
	width, curEnd, cur := l.width, l.curEnd, l.cur
	for _, p := range ps {
		if p.t < curEnd {
			cur.Count++
			cur.Sum += p.v
			if p.v < cur.Min {
				cur.Min = p.v
			}
			if p.v > cur.Max {
				cur.Max = p.v
			}
			continue
		}
		var start time.Duration
		if p.t < curEnd+width {
			// Adjacent bucket — the steady-state rollover for a level
			// whose width matches the sampling cadence. No division.
			start = curEnd
		} else {
			start = p.t / width * width
		}
		if curEnd != 0 {
			l.close(cur)
		}
		curEnd = start + width
		cur = Bucket{Start: start, Count: 1, Sum: p.v, Min: p.v, Max: p.v}
	}
	l.curEnd, l.cur = curEnd, cur
}

// close appends b as the level's newest closed bucket.
func (l *level) close(b Bucket) {
	i := l.n % chunkLen
	if i == 0 {
		l.chunks = append(l.chunks, new([chunkLen]Bucket))
	}
	l.chunks[len(l.chunks)-1][i] = b
	l.n++
}

// open reports whether the level has an open tail bucket.
func (l *level) open() bool { return l.curEnd != 0 }

// at returns closed bucket i.
func (l *level) at(i int) *Bucket { return &l.chunks[i/chunkLen][i%chunkLen] }

// appendClosed appends closed buckets [lo, hi) to out, one copy per
// chunk.
func (l *level) appendClosed(out []Bucket, lo, hi int) []Bucket {
	for lo < hi {
		off := lo % chunkLen
		end := min(chunkLen, off+hi-lo)
		out = append(out, l.chunks[lo/chunkLen][off:end]...)
		lo += end - off
	}
	return out
}

// series is the pyramid for one key.
//
// raw holds the raw band, oldest first. A point expires once a later
// sample is more than RawRetention newer; expiry is resolved when the
// band is read (expired) and reclaimed only when raw is full (push), so
// an append writes the band's newest end and never reads its cold oldest
// point.
//
// Appends do not fold: raw[:folded] are in the levels, and raw[folded:]
// wait for catchUp, which runs when raw fills and before any read of the
// levels. Pending points already sit in the band, so deferring their
// folds costs no memory.
type series struct {
	raw    []point
	folded int
	levels [4]level // minute, quarter, hour, day
	lastT  time.Duration
	hasAny bool
	// reclaimed counts expired raw points already cut from raw.
	reclaimed int64
}

// catchUp folds the pending points raw[folded:] into every level. It is
// the only path by which points reach the levels; its caller holds the
// series' shard lock.
func (ser *series) catchUp() {
	pending := ser.raw[ser.folded:]
	if len(pending) == 0 {
		return
	}
	for i := range ser.levels {
		ser.levels[i].foldRun(pending)
	}
	ser.folded = len(ser.raw)
}

// expired returns how many of raw's points lie outside the retention
// window ret: those older than lastT-ret. Timestamps are non-decreasing,
// so they are a prefix.
func (ser *series) expired(ret time.Duration) int {
	if ret <= 0 {
		return 0
	}
	return searchPoints(ser.raw, ser.lastT-ret)
}

// push appends a raw point; lastT must already be its timestamp. When
// raw is full, the levels catch up on it and its expired prefix is
// reclaimed: in place when the retained points fill at most three
// quarters of it, else into a new slice of twice the capacity. Either
// way the copy is amortized O(1) per append, and under retention the
// slice stays within 8/3 of the retained band. Catching up first means
// no point leaves the band unfolded, and pending work never exceeds
// raw's capacity.
func (ser *series) push(p point, ret time.Duration) {
	if c := cap(ser.raw); len(ser.raw) == c {
		ser.catchUp()
		dead := ser.expired(ret)
		keep := ser.raw[dead:]
		if len(keep)*4 > c*3 {
			ser.raw = make([]point, len(keep), 2*c)
			copy(ser.raw, keep)
		} else {
			ser.raw = ser.raw[:copy(ser.raw, keep)]
		}
		ser.folded -= dead
		ser.reclaimed += int64(dead)
	}
	ser.raw = append(ser.raw, p)
}

// searchPoints returns the index of the first point at or after t.
func searchPoints(ps []point, t time.Duration) int {
	return sort.Search(len(ps), func(i int) bool { return ps[i].t >= t })
}

// Config configures a Store.
type Config struct {
	// RawInterval is the base sampling period (the paper uses 15 s).
	RawInterval time.Duration
	// RawRetention bounds how long raw points are kept; zero keeps
	// everything. A point older than the key's newest sample by more
	// than RawRetention is gone from Query and Stats at once, and its
	// memory is reused once the key's raw band fills. Aggregates are
	// kept forever (they are the "bands" of interest; rawer data "can be
	// considered as noise and be eliminated").
	RawRetention time.Duration
	// Shards is the number of lock shards for concurrent ingestion.
	Shards int
}

// DefaultConfig matches the paper's scenario: 15-second samples, one hour
// of raw retention, enough shards for a many-core collector.
func DefaultConfig() Config {
	return Config{RawInterval: 15 * time.Second, RawRetention: time.Hour, Shards: 32}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.RawInterval <= 0 {
		return fmt.Errorf("telemetry: raw interval %v must be positive", c.RawInterval)
	}
	if c.RawRetention < 0 {
		return fmt.Errorf("telemetry: raw retention %v must be non-negative", c.RawRetention)
	}
	if c.Shards <= 0 {
		return fmt.Errorf("telemetry: shards %d must be positive", c.Shards)
	}
	return nil
}

// Store is a sharded multi-resolution time-series store, safe for
// concurrent appends and queries.
type Store struct {
	cfg    Config
	shards []*shard
	// Frame registry (see Frames). framesMu is always acquired before
	// any shard lock; the per-point hot paths (Appender.Append,
	// Batch.Append) never touch it.
	framesMu     sync.RWMutex
	frames       map[string]frameRef
	frameWriters []*FrameWriter
}

type shard struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewStore builds a store.
func NewStore(cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, shards: make([]*shard, cfg.Shards), frames: make(map[string]frameRef)}
	for i := range s.shards {
		s.shards[i] = &shard{series: make(map[string]*series)}
	}
	return s, nil
}

func (s *Store) shardFor(key string) *shard {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return s.shards[h%uint64(len(s.shards))]
}

func newSeries() *series {
	return &series{
		levels: [4]level{
			{width: time.Minute},
			{width: 15 * time.Minute},
			{width: time.Hour},
			{width: 24 * time.Hour},
		},
	}
}

// Append ingests one sample. Timestamps per key must be non-decreasing
// (collection pipelines deliver in order); regressions are rejected.
// Pipelines appending the same key repeatedly should resolve an Appender
// once and use its Append, which skips the per-point key hash and map
// lookup.
func (s *Store) Append(key string, t time.Duration, v float64) error {
	// Hold the frame registry read lock across the shard operation so a
	// concurrent Frames() cannot register key between the check and the
	// series creation (registry before shard is the package lock order).
	s.framesMu.RLock()
	defer s.framesMu.RUnlock()
	if _, framed := s.frames[key]; framed {
		return fmt.Errorf("telemetry: key %q belongs to a frame; append through its FrameWriter", key)
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ser, ok := sh.series[key]
	if !ok {
		ser = newSeries()
		sh.series[key] = ser
	}
	return s.appendLocked(key, ser, t, v)
}

// appendLocked ingests one sample into a resolved series. The caller
// holds the series' shard lock.
func (s *Store) appendLocked(key string, ser *series, t time.Duration, v float64) error {
	if t < 0 {
		return fmt.Errorf("telemetry: negative timestamp %v", t)
	}
	if ser.hasAny && t < ser.lastT {
		return fmt.Errorf("telemetry: out-of-order sample for %q: %v after %v", key, t, ser.lastT)
	}
	ser.lastT = t
	ser.hasAny = true
	ser.push(point{t: t, v: v}, s.cfg.RawRetention)
	return nil
}

// Appender is a resolved handle to one series: the shard and series are
// looked up once at construction, so the per-point ingest path skips the
// key hash and map lookup entirely. An Appender is safe for concurrent
// use with other Appenders and with Store methods (appends still take
// the shard lock); per-key sample ordering rules are unchanged.
type Appender struct {
	store *Store
	sh    *shard
	ser   *series
	key   string
}

// Appender interns key and returns its append handle, creating the
// series if it does not exist yet. Keys belonging to a frame have no
// per-point series; resolving one is a programming error and panics.
func (s *Store) Appender(key string) *Appender {
	s.framesMu.RLock()
	defer s.framesMu.RUnlock()
	if _, framed := s.frames[key]; framed {
		panic(fmt.Sprintf("telemetry: key %q belongs to a frame; append through its FrameWriter", key))
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	ser, ok := sh.series[key]
	if !ok {
		ser = newSeries()
		sh.series[key] = ser
	}
	sh.mu.Unlock()
	return &Appender{store: s, sh: sh, ser: ser, key: key}
}

// Key returns the series key the handle is bound to.
func (a *Appender) Key() string { return a.key }

// Append ingests one sample through the resolved handle.
func (a *Appender) Append(t time.Duration, v float64) error {
	a.sh.mu.Lock()
	err := a.store.appendLocked(a.key, a.ser, t, v)
	a.sh.mu.Unlock()
	return err
}

// Batch is a write burst that holds every shard lock, so a sampling
// round over N series pays two lock operations per shard instead of two
// per point — the difference between 20,000 atomic RMWs and 64 when a
// 10,000-server collector flushes one round. Queries and other appenders
// block for the duration, so End must be called promptly (it is safe and
// idiomatic to defer it). A Batch must not outlive one burst: it is not
// safe for concurrent use.
type Batch struct {
	s *Store
}

// BeginBatch locks the store for a burst of appends through resolved
// Appenders. Shards are locked in index order — the only multi-lock
// acquisition in the package, so lock ordering stays consistent.
func (s *Store) BeginBatch() Batch {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	return Batch{s: s}
}

// Append ingests one sample through a resolved handle under the batch's
// locks. The handle must come from the same store the batch was begun
// on.
func (b Batch) Append(a *Appender, t time.Duration, v float64) error {
	if a.store != b.s {
		return fmt.Errorf("telemetry: appender %q belongs to a different store", a.key)
	}
	return b.s.appendLocked(a.key, a.ser, t, v)
}

// End releases every shard lock acquired by BeginBatch.
func (b Batch) End() {
	for _, sh := range b.s.shards {
		sh.mu.Unlock()
	}
}

// Keys returns all stored keys in sorted order, framed keys included.
func (s *Store) Keys() []string {
	var keys []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k := range sh.series {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
	}
	s.framesMu.RLock()
	for k := range s.frames {
		keys = append(keys, k)
	}
	s.framesMu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Stats summarizes storage.
type Stats struct {
	// Keys is the number of series.
	Keys int
	// RawPoints is the number of retained raw samples.
	RawPoints int64
	// DroppedRaw is the number of raw samples discarded by retention.
	DroppedRaw int64
	// AggBuckets is the total bucket count across all levels.
	AggBuckets int64
}

// Stats reports storage accounting — the §5.3 storage-reduction measure.
// Bucket counts include every appended point: each per-point series
// folds its pending points first.
func (s *Store) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, ser := range sh.series {
			ser.catchUp()
			dead := ser.expired(s.cfg.RawRetention)
			out.Keys++
			out.RawPoints += int64(len(ser.raw) - dead)
			out.DroppedRaw += ser.reclaimed + int64(dead)
			for i := range ser.levels {
				l := &ser.levels[i]
				out.AggBuckets += int64(l.n)
				if l.open() {
					out.AggBuckets++
				}
			}
		}
		sh.mu.Unlock()
	}
	s.framesMu.RLock()
	writers := s.frameWriters
	s.framesMu.RUnlock()
	for _, w := range writers {
		w.stats(&out)
	}
	return out
}

// Query returns the buckets of key overlapping [from, to) at the given
// resolution. Raw queries synthesize one bucket per sample from the
// retained raw band; aggregate queries of a per-point series fold its
// pending points first.
//
// Framed keys are resolved against the frame registry first and answer
// entirely from their FrameWriter's columns: a scrape of framed
// telemetry never waits on a shard lock, so it cannot stall behind a
// BeginBatch ingest burst (which holds every shard lock). Before this
// ordering, a framed-key query blocked on the — always irrelevant —
// shard its key hashed to for the whole burst.
func (s *Store) Query(key string, from, to time.Duration, res Resolution) ([]Bucket, error) {
	if to < from {
		return nil, fmt.Errorf("telemetry: inverted range [%v, %v)", from, to)
	}
	s.framesMu.RLock()
	ref, framed := s.frames[key]
	s.framesMu.RUnlock()
	if framed {
		return ref.w.query(ref.col, from, to, res)
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	ser, ok := sh.series[key]
	if !ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("telemetry: unknown key %q", key)
	}
	defer sh.mu.Unlock()
	if res == ResRaw {
		return rawBuckets(ser.raw[ser.expired(s.cfg.RawRetention):], from, to), nil
	}
	li, err := levelIndex(res)
	if err != nil {
		return nil, err
	}
	ser.catchUp()
	lv := &ser.levels[li]
	// Binary search the dense, sorted closed buckets, then splice in the
	// open tail bucket if it overlaps the range.
	lo := sort.Search(lv.n, func(i int) bool {
		return lv.at(i).Start+lv.width > from
	})
	hi := sort.Search(lv.n, func(i int) bool {
		return lv.at(i).Start >= to
	})
	takeCur := lv.open() && lv.curEnd > from && lv.cur.Start < to
	n := hi - lo
	if takeCur {
		n++
	}
	out := lv.appendClosed(make([]Bucket, 0, n), lo, hi)
	if takeCur {
		out = append(out, lv.cur)
	}
	return out, nil
}

// rawBuckets synthesizes one bucket per raw point of band in [from, to),
// bounding the range by binary search and allocating the result once at
// its exact size (nil when the range holds no point).
func rawBuckets(band []point, from, to time.Duration) []Bucket {
	lo, hi := searchPoints(band, from), searchPoints(band, to)
	if lo == hi {
		return nil
	}
	out := make([]Bucket, hi-lo)
	for i, p := range band[lo:hi] {
		out[i] = Bucket{Start: p.t, Count: 1, Sum: p.v, Min: p.v, Max: p.v}
	}
	return out
}

func levelIndex(res Resolution) (int, error) {
	switch res {
	case ResMinute:
		return 0, nil
	case ResQuarter:
		return 1, nil
	case ResHour:
		return 2, nil
	case ResDay:
		return 3, nil
	default:
		return 0, fmt.Errorf("telemetry: resolution %v has no aggregate level", res)
	}
}

// DailyAverages returns the per-day mean of a key — the long-term trend
// query ("predict long term usage trend (e.g. by performing daily
// average)").
func (s *Store) DailyAverages(key string) ([]float64, error) {
	bs, err := s.Query(key, 0, 1<<62, ResDay)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(bs))
	for _, b := range bs {
		out = append(out, b.Mean())
	}
	return out, nil
}

// HourlyPattern returns the mean value per hour-of-day — the usage-pattern
// query ("understand usage patterns within a day (e.g. by performing
// hourly average)").
func (s *Store) HourlyPattern(key string) ([24]float64, error) {
	var sums [24]float64
	var counts [24]int64
	bs, err := s.Query(key, 0, 1<<62, ResHour)
	if err != nil {
		return [24]float64{}, err
	}
	for _, b := range bs {
		h := int(b.Start/time.Hour) % 24
		sums[h] += b.Sum
		counts[h] += b.Count
	}
	var out [24]float64
	for h := range out {
		if counts[h] > 0 {
			out[h] = sums[h] / float64(counts[h])
		}
	}
	return out, nil
}

// CorrelateDetrended computes the Pearson correlation of two keys at the
// given resolution after removing each series' own trend with a centered
// moving average — the load-balancer-behaviour query ("by performing
// correlations after removing the hourly trend").
func (s *Store) CorrelateDetrended(key1, key2 string, res Resolution, window int) (float64, error) {
	a, err := s.Query(key1, 0, 1<<62, res)
	if err != nil {
		return 0, err
	}
	b, err := s.Query(key2, 0, 1<<62, res)
	if err != nil {
		return 0, err
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < window {
		return 0, fmt.Errorf("telemetry: %d aligned buckets below detrend window %d", n, window)
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = a[i].Mean()
		ys[i] = b[i].Mean()
	}
	dx, err := stats.Detrend(xs, window)
	if err != nil {
		return 0, err
	}
	dy, err := stats.Detrend(ys, window)
	if err != nil {
		return 0, err
	}
	return stats.Correlation(dx, dy)
}

// Anomaly is one detected outlier.
type Anomaly struct {
	// At is the bucket start time.
	At time.Duration
	// Value is the observed bucket mean.
	Value float64
	// Score is the robust z-score against the hour-of-day pattern.
	Score float64
}

// Anomalies flags minute buckets whose mean deviates from the key's
// hour-of-day pattern by more than zThreshold standard deviations — the
// spike-detection query ("detect anomalies (e.g. by monitoring unusually
// spikes)").
func (s *Store) Anomalies(key string, zThreshold float64) ([]Anomaly, error) {
	if zThreshold <= 0 {
		return nil, fmt.Errorf("telemetry: z threshold %v must be positive", zThreshold)
	}
	pattern, err := s.HourlyPattern(key)
	if err != nil {
		return nil, err
	}
	bs, err := s.Query(key, 0, 1<<62, ResMinute)
	if err != nil {
		return nil, err
	}
	// Residual spread vs the hourly pattern.
	var resid stats.Running
	for _, b := range bs {
		h := int(b.Start/time.Hour) % 24
		resid.Add(b.Mean() - pattern[h])
	}
	sd := resid.StdDev()
	if sd == 0 {
		return nil, nil
	}
	var out []Anomaly
	for _, b := range bs {
		h := int(b.Start/time.Hour) % 24
		z := (b.Mean() - pattern[h] - resid.Mean()) / sd
		if math.Abs(z) >= zThreshold {
			out = append(out, Anomaly{At: b.Start, Value: b.Mean(), Score: z})
		}
	}
	return out, nil
}
