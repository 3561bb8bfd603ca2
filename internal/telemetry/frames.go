package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/par"
)

// FrameWriter ingests fleet-synchronous telemetry: a fixed set of keys
// that are all sampled at the same instant, every round — the §5.3
// collector shape, where one sweep reads every server's counters at
// once. Because the timestamp is shared, the whole frame has one
// ordering check, one bucket boundary per pyramid level, and one count
// per bucket; per-key state reduces to K-wide sum/min/max columns. One
// round is therefore a handful of sequential array writes instead of
// per-key pyramid walks — the structure-of-arrays ingest path that keeps
// a 10,000-server sample round cache-friendly.
//
// Storage is rows, each allocated once at its exact size and never
// regrown: one per round, and one per closed bucket of several rounds.
// Growing the store copies only row headers, never values. A bucket that
// closes holding a single round shares that round's row instead of
// copying it, and rows that retention expires are recycled for later
// rounds unless a bucket shares them.
//
// Framed keys live in the parent Store's namespace: Query, Stats, Keys
// and the derived analyses (DailyAverages, HourlyPattern, Anomalies,
// CorrelateDetrended) see identical buckets to what per-point ingestion
// of the same values would have produced.
type FrameWriter struct {
	store *Store
	keys  []string

	mu     sync.RWMutex
	lastT  time.Duration
	hasAny bool
	// Raw band: the retained rounds, oldest first from rawHead, each a
	// K-wide row. Retention advances rawHead and moves each expired row
	// that no bucket shares to spare; a new round takes its row from
	// spare before allocating one. Compaction moves the row headers down,
	// amortized exactly as the per-series raw band's trim.
	raw           []frameRound
	rawHead       int
	spare         [][]float64
	droppedRounds int64
	levels        [4]frameLevel
	// colShards partitions the column space for AppendPar, fixed at
	// construction (a pure function of the frame width).
	colShards []par.Range
	// AppendPar's shard body, bound once in Frames so a fan-out allocates
	// no closure, and the round it folds: the values plus, per level,
	// whether the round landed in the already-open bucket.
	foldFn    func(int, par.Range)
	foldRound []float64
	foldOpen  [4]bool
}

// frameRound is one retained raw round: its timestamp and K-wide row.
// shared marks a row a closed single-round bucket also holds, which
// retention must not recycle.
type frameRound struct {
	t      time.Duration
	vals   []float64
	shared bool
}

// frameLevel is one aggregation level of the frame pyramid. The open
// bucket is columnar: a shared start/count plus K-wide sum/min/max
// columns, the aligned buffers AppendPar shards over. Closing a bucket
// of several rounds copies them into one exact-size row.
type frameLevel struct {
	width  time.Duration
	curEnd time.Duration // exclusive end of the open bucket; 0 while empty
	curCnt int64
	curSum []float64
	curMin []float64
	curMax []float64
	closed []frameBucket
}

// frameBucket is one closed bucket of a frame level. cols holds the
// bucket's columns as sum | min | max, 3K wide — or, when the bucket
// holds a single round, whose min, max and sum are that round's values
// bit for bit, the round's K-wide raw row itself.
type frameBucket struct {
	start time.Duration
	count int64
	cols  []float64
}

// bucket materializes column col of a frame of width k.
func (b *frameBucket) bucket(col, k int) Bucket {
	sum := b.cols[col]
	if b.count == 1 {
		return Bucket{Start: b.start, Count: 1, Sum: sum, Min: sum, Max: sum}
	}
	return Bucket{Start: b.start, Count: b.count, Sum: sum, Min: b.cols[k+col], Max: b.cols[2*k+col]}
}

// frameRef resolves a framed key to its writer and column.
type frameRef struct {
	w   *FrameWriter
	col int
}

// Frames declares keys as one synchronously-sampled frame and returns
// its writer. The keys must be distinct and must not already exist in
// the store (as plain series or in another frame); they are created
// empty. Lock order: the store's frame registry is always acquired
// before any shard lock.
func (s *Store) Frames(keys []string) (*FrameWriter, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("telemetry: frame needs at least one key")
	}
	s.framesMu.Lock()
	defer s.framesMu.Unlock()
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			return nil, fmt.Errorf("telemetry: duplicate frame key %q", k)
		}
		seen[k] = true
		if _, ok := s.frames[k]; ok {
			return nil, fmt.Errorf("telemetry: key %q already belongs to a frame", k)
		}
		sh := s.shardFor(k)
		sh.mu.Lock()
		_, exists := sh.series[k]
		sh.mu.Unlock()
		if exists {
			return nil, fmt.Errorf("telemetry: key %q already exists as a plain series", k)
		}
	}
	w := &FrameWriter{store: s, keys: append([]string(nil), keys...)}
	k := len(keys)
	w.colShards = par.Shards(k)
	w.foldFn = w.foldShard
	for i := range w.levels {
		// Cache-line-aligned columns: AppendPar shards these by column
		// range on 64-byte boundaries, so aligned bases keep concurrent
		// shards off each other's lines.
		w.levels[i] = frameLevel{
			curSum: par.AlignedFloats(k),
			curMin: par.AlignedFloats(k),
			curMax: par.AlignedFloats(k),
		}
	}
	w.levels[0].width = time.Minute
	w.levels[1].width = 15 * time.Minute
	w.levels[2].width = time.Hour
	w.levels[3].width = 24 * time.Hour
	for col, key := range w.keys {
		s.frames[key] = frameRef{w: w, col: col}
	}
	s.frameWriters = append(s.frameWriters, w)
	return w, nil
}

// Keys returns the frame's key set in column order.
func (w *FrameWriter) Keys() []string { return append([]string(nil), w.keys...) }

// Width returns the number of columns (keys) in the frame.
func (w *FrameWriter) Width() int { return len(w.keys) }

// LatestInto copies the most recent round's values into dst (which must
// have at least Width elements) and returns the round's timestamp. It
// reports false if no round has been ingested yet. This is the
// zero-copy scrape path for live exporters: one memcpy of the latest row
// under the frame's read lock — no bucket materialization, no
// aggregation, and no contention with the store's shard locks.
func (w *FrameWriter) LatestInto(dst []float64) (time.Duration, bool) {
	k := len(w.keys)
	if len(dst) < k {
		panic(fmt.Sprintf("telemetry: LatestInto dst of %d for frame width %d", len(dst), k))
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	n := len(w.raw)
	if n == 0 {
		return 0, false
	}
	last := w.raw[n-1]
	copy(dst, last.vals)
	return last.t, true
}

// Append ingests one round: values[i] is the sample for the i-th frame
// key, all observed at time t. Rounds must arrive in non-decreasing
// time order.
func (w *FrameWriter) Append(t time.Duration, values []float64) error {
	return w.AppendPar(t, values, nil)
}

// AppendPar is Append with the K-wide column updates fanned out over the
// pool. Every per-column fold (sum/min/max) touches only that column's
// state, so the result is bit-identical for any worker count — a nil
// pool runs the column shards inline. All boundary decisions,
// closed-bucket rows, raw rows, and retention trimming stay on the
// calling goroutine; only the in-bucket column arithmetic fans out.
func (w *FrameWriter) AppendPar(t time.Duration, values []float64, p *par.Pool) error {
	if len(values) != len(w.keys) {
		return fmt.Errorf("telemetry: frame round has %d values for %d keys", len(values), len(w.keys))
	}
	if t < 0 {
		return fmt.Errorf("telemetry: negative timestamp %v", t)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hasAny && t < w.lastT {
		return fmt.Errorf("telemetry: out-of-order frame round: %v after %v", t, w.lastT)
	}
	w.lastT = t
	w.hasAny = true
	// Boundaries first, while the previous round is still the band's
	// newest row: a bucket closing with a single round holds exactly that
	// round, and shares its row.
	var prev *frameRound
	if n := len(w.raw); n > 0 {
		prev = &w.raw[n-1]
	}
	anyIn := false
	for i := range w.levels {
		w.foldOpen[i] = w.levels[i].foldBoundary(t, values, prev)
		anyIn = anyIn || w.foldOpen[i]
	}
	// Expire next, so a full window's round reuses the row it expires.
	// The new round itself is never expired: t is not before t-ret.
	if ret := w.store.cfg.RawRetention; ret > 0 {
		cutoff := t - ret
		head := w.rawHead
		for w.rawHead < len(w.raw) && w.raw[w.rawHead].t < cutoff {
			if r := &w.raw[w.rawHead]; !r.shared {
				w.spare = append(w.spare, r.vals)
			}
			w.rawHead++
		}
		if drop := w.rawHead - head; drop > 0 {
			w.droppedRounds += int64(drop)
			if w.rawHead*2 >= len(w.raw) {
				n := copy(w.raw, w.raw[w.rawHead:])
				w.raw = w.raw[:n]
				w.rawHead = 0
			}
		}
	}
	var row []float64
	if n := len(w.spare); n > 0 {
		row = w.spare[n-1]
		w.spare = w.spare[:n-1]
	} else {
		row = make([]float64, len(w.keys))
	}
	copy(row, values)
	w.raw = append(w.raw, frameRound{t: t, vals: row})
	if anyIn {
		w.foldRound = values
		p.RunRanges(w.colShards, w.foldFn)
		w.foldRound = nil
	}
	return nil
}

// foldBoundary makes the level's single per-round boundary decision and,
// on rollover, closes the open bucket and seeds the new one from the
// round's values. A closing bucket that holds one round takes prev, the
// previous round's raw row; any other is copied into one exact-size row.
// It reports whether the round lands in the already-open bucket, i.e.
// whether the K-wide column updates are still pending (foldColumns).
func (l *frameLevel) foldBoundary(t time.Duration, values []float64, prev *frameRound) bool {
	if t < l.curEnd {
		l.curCnt++
		return true
	}
	var start time.Duration
	if t < l.curEnd+l.width {
		// Adjacent bucket — the steady-state rollover. No division.
		start = l.curEnd
	} else {
		start = t / l.width * l.width
	}
	if l.curEnd != 0 {
		var cols []float64
		if l.curCnt == 1 {
			prev.shared = true
			cols = prev.vals
		} else {
			k := len(l.curSum)
			cols = make([]float64, 3*k)
			copy(cols, l.curSum)
			copy(cols[k:], l.curMin)
			copy(cols[2*k:], l.curMax)
		}
		l.closed = append(l.closed, frameBucket{start: l.curEnd - l.width, count: l.curCnt, cols: cols})
	}
	l.curEnd = start + l.width
	l.curCnt = 1
	copy(l.curSum, values)
	copy(l.curMin, values)
	copy(l.curMax, values)
	return false
}

// foldShard is AppendPar's shard body: it folds the round into every
// level whose bucket stayed open, over the shard's column range.
func (w *FrameWriter) foldShard(_ int, r par.Range) {
	for i := range w.levels {
		if w.foldOpen[i] {
			w.levels[i].foldColumns(w.foldRound, r.Lo, r.Hi)
		}
	}
}

// foldColumns folds the round's values into the open bucket over the
// column range [lo, hi).
func (l *frameLevel) foldColumns(values []float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		v := values[k]
		l.curSum[k] += v
		if v < l.curMin[k] {
			l.curMin[k] = v
		}
		if v > l.curMax[k] {
			l.curMax[k] = v
		}
	}
}

// query materializes one column's buckets over [from, to) at res.
func (w *FrameWriter) query(col int, from, to time.Duration, res Resolution) ([]Bucket, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	k := len(w.keys)
	if res == ResRaw {
		// Bound the range by binary search and allocate the result once
		// at its exact size, as for a per-point series.
		band := w.raw[w.rawHead:]
		lo := sort.Search(len(band), func(i int) bool { return band[i].t >= from })
		hi := sort.Search(len(band), func(i int) bool { return band[i].t >= to })
		if lo == hi {
			return nil, nil
		}
		out := make([]Bucket, hi-lo)
		for i, r := range band[lo:hi] {
			v := r.vals[col]
			out[i] = Bucket{Start: r.t, Count: 1, Sum: v, Min: v, Max: v}
		}
		return out, nil
	}
	li, err := levelIndex(res)
	if err != nil {
		return nil, err
	}
	l := &w.levels[li]
	lo := sort.Search(len(l.closed), func(i int) bool {
		return l.closed[i].start+l.width > from
	})
	hi := sort.Search(len(l.closed), func(i int) bool {
		return l.closed[i].start >= to
	})
	takeCur := l.curEnd != 0 && l.curEnd > from && l.curEnd-l.width < to
	n := hi - lo
	if takeCur {
		n++
	}
	out := make([]Bucket, 0, n)
	for i := lo; i < hi; i++ {
		out = append(out, l.closed[i].bucket(col, k))
	}
	if takeCur {
		out = append(out, Bucket{
			Start: l.curEnd - l.width, Count: l.curCnt,
			Sum: l.curSum[col], Min: l.curMin[col], Max: l.curMax[col],
		})
	}
	return out, nil
}

// stats folds the frame's storage accounting into out.
func (w *FrameWriter) stats(out *Stats) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	k := int64(len(w.keys))
	out.Keys += len(w.keys)
	out.RawPoints += int64(len(w.raw)-w.rawHead) * k
	out.DroppedRaw += w.droppedRounds * k
	for i := range w.levels {
		l := &w.levels[i]
		n := int64(len(l.closed))
		if l.curEnd != 0 {
			n++
		}
		out.AggBuckets += n * k
	}
}
