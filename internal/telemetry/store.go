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
// Keys are ingested in frames: a fixed key set sampled at shared
// timestamps, one round per sweep (Store.Frames, FrameWriter). A key
// sampled on its own schedule is a one-column frame.
//
// # Concurrency contract
//
// A Store is safe for concurrent use: any number of goroutines may mix
// frame registration (Frames), appends (FrameWriter.Append, AppendPar)
// and reads (Query, Stats, Keys, the derived analyses, and
// FrameWriter.LatestInto). There are two kinds of lock. The store's
// registry lock guards the key-to-column map and the writer list:
// Frames adds its keys under it held exclusively, and every other call
// holds it shared, only to read the map or to copy the writer list,
// never while it takes a frame's lock. Each FrameWriter has one RWMutex
// over its rounds and pyramid.
//
// An append writes only the raw band, under the frame's lock held
// exclusively. The pyramid levels catch up on the pending rounds when
// the band needs room or a read needs the levels, so aggregate reads
// (Query at an aggregate resolution, Stats, the derived analyses) take
// the frame's lock exclusively too. LatestInto and raw-resolution reads
// take it shared, so live scrapes of the latest round run concurrently.
//
// Reads are internally consistent but only per call: a Query observes
// one atomic state of its frame (no torn open-tail buckets), while a
// sequence of calls (e.g. Stats then Query, or the multi-Query derived
// analyses) may straddle concurrent appends. Round ordering remains the
// appender's obligation: timestamps per frame must be non-decreasing
// regardless of which goroutine delivers them.
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

// Config configures a Store.
type Config struct {
	// RawRetention bounds how long raw rounds are kept; zero keeps
	// everything. A round older than its frame's newest round by more
	// than RawRetention is gone from Query and Stats at once, and its
	// row is reused by a later round unless a bucket shares it.
	// Aggregates are kept forever (they are the "bands" of interest;
	// rawer data "can be considered as noise and be eliminated").
	RawRetention time.Duration
}

// DefaultConfig matches the paper's scenario: one hour of raw retention.
func DefaultConfig() Config {
	return Config{RawRetention: time.Hour}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.RawRetention < 0 {
		return fmt.Errorf("telemetry: raw retention %v must be non-negative", c.RawRetention)
	}
	return nil
}

// Store is a multi-resolution time-series store over frames, safe for
// concurrent appends and queries.
type Store struct {
	cfg Config
	// Frame registry (see Frames). Frames only appends to frameWriters,
	// so Stats may walk the slice it loaded after releasing framesMu.
	framesMu     sync.RWMutex
	frames       map[string]frameRef
	frameWriters []*FrameWriter
}

// NewStore builds a store.
func NewStore(cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Store{cfg: cfg}, nil
}

// Keys returns all stored keys in sorted order.
func (s *Store) Keys() []string {
	s.framesMu.RLock()
	keys := make([]string, 0, len(s.frames))
	for k := range s.frames {
		keys = append(keys, k)
	}
	s.framesMu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Stats summarizes storage.
type Stats struct {
	// Keys is the number of keys.
	Keys int
	// RawPoints is the number of retained raw samples.
	RawPoints int64
	// DroppedRaw is the number of raw samples discarded by retention.
	DroppedRaw int64
	// AggBuckets is the total bucket count across all levels.
	AggBuckets int64
}

// Stats reports storage accounting — the §5.3 storage-reduction measure.
// Bucket counts include every appended round: each frame catches its
// levels up first.
func (s *Store) Stats() Stats {
	s.framesMu.RLock()
	writers := s.frameWriters
	s.framesMu.RUnlock()
	var out Stats
	for _, w := range writers {
		w.stats(&out)
	}
	return out
}

// Query returns the buckets of key overlapping [from, to) at the given
// resolution. Raw queries synthesize one bucket per retained round;
// aggregate queries catch the key's frame up on its pending rounds
// first.
func (s *Store) Query(key string, from, to time.Duration, res Resolution) ([]Bucket, error) {
	if to < from {
		return nil, fmt.Errorf("telemetry: inverted range [%v, %v)", from, to)
	}
	s.framesMu.RLock()
	ref, ok := s.frames[key]
	s.framesMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("telemetry: unknown key %q", key)
	}
	return ref.w.query(ref.col, from, to, res)
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
