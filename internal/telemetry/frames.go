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
// per bucket; per-key state reduces to K-wide sum/min/max columns.
//
// An append writes only the round's raw row. The pyramid levels catch up
// on the pending rounds in one pass (catchUp) when a pending row is
// about to leave the retention band, when the band's header slice is
// full, and when a read needs the levels (Query at an aggregate
// resolution, Stats). A pass makes every pending round's boundary
// decisions first, then folds the columns in blocks of frameBlock, so
// each level's open sum/min/max block stays in cache while the pending
// rows stream through it once. Each bucket still adds its rounds one at
// a time in time order, so its sum, min and max do not depend on when
// the passes ran.
//
// Storage is rows, each allocated once at its exact size and never
// regrown: one per round, and one per closed bucket of several rounds.
// Growing the store copies only row headers, never values. A bucket that
// closes holding a single round shares that round's row instead of
// copying it, and rows that retention expires are recycled for later
// rounds unless a bucket shares them or may yet share them.
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
	// that no bucket shares or may share to spare; a new round takes its
	// row from spare before allocating one. Compaction moves the row
	// headers down, amortized exactly as the per-series raw band's trim,
	// and adds the rounds it cuts to rawBase, the absolute index of
	// raw[0].
	raw           []frameRound
	rawHead       int
	rawBase       int64
	spare         [][]float64
	droppedRounds int64
	// raw[:folded] are in the levels; raw[folded:] wait for catchUp.
	// Pending rows already sit in the band, so deferring their folds
	// costs no memory.
	folded int
	levels [4]frameLevel
	// colShards partitions the column space for the catch-up's fan-out,
	// fixed at construction (a pure function of the frame width).
	colShards []par.Range
	// The catch-up's shard body, bound once in Frames so a fan-out
	// allocates no closure, and the plan it applies: per pending round,
	// one op per level, and the rows of the closing buckets of several
	// rounds in (round, level) order.
	foldFn    func(int, par.Range)
	plan      [][4]frameOp
	closeRows [][]float64
}

// frameBlock is the catch-up's column block. 256 columns keep the four
// levels' open sum/min/max blocks (4 × 3 × 2 KB) in a 32 KB L1 while the
// pending rows stream through.
const frameBlock = 256

// frameOp is what one pending round does to one level in a catch-up:
// opFold alone, or opClose, opSeed, both or neither.
type frameOp uint8

const (
	// opFold: the round lands in the open bucket.
	opFold frameOp = 1 << iota
	// opClose: the open bucket, of several rounds, closes; its columns
	// are copied into its closed row.
	opClose
	// opSeed: the round opens a bucket and seeds the open columns. A
	// bucket that closes again in the same catch-up holding only this
	// round shares the round's row instead, so the plan drops its seed.
	opSeed
)

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
// columns, the aligned buffers a catch-up shards over. Closing a bucket
// of several rounds copies them into one exact-size row. openAt and
// openRow name the round that opened the open bucket (its absolute
// index and its row): a bucket that closes holding only that round
// shares the row.
type frameLevel struct {
	width   time.Duration
	curEnd  time.Duration // exclusive end of the open bucket; 0 while empty
	curCnt  int64
	curSum  []float64
	curMin  []float64
	curMax  []float64
	openAt  int64
	openRow []float64
	closed  []frameBucket
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
// empty. The keys are registered into a new registry map, sized once,
// which replaces the old one only when every key is accepted. Lock
// order: the store's frame registry is always acquired before any shard
// lock.
func (s *Store) Frames(keys []string) (*FrameWriter, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("telemetry: frame needs at least one key")
	}
	s.framesMu.Lock()
	defer s.framesMu.Unlock()
	w := &FrameWriter{store: s, keys: append([]string(nil), keys...)}
	frames := make(map[string]frameRef, len(s.frames)+len(keys))
	for key, ref := range s.frames {
		frames[key] = ref
	}
	for col, key := range keys {
		if ref, ok := frames[key]; ok {
			if ref.w == w {
				return nil, fmt.Errorf("telemetry: duplicate frame key %q", key)
			}
			return nil, fmt.Errorf("telemetry: key %q already belongs to a frame", key)
		}
		sh := s.shardFor(key)
		sh.mu.Lock()
		_, exists := sh.series[key]
		sh.mu.Unlock()
		if exists {
			return nil, fmt.Errorf("telemetry: key %q already exists as a plain series", key)
		}
		frames[key] = frameRef{w: w, col: col}
	}
	k := len(keys)
	w.colShards = par.Shards(k)
	w.foldFn = w.foldShard
	for i := range w.levels {
		// Cache-line-aligned columns: a catch-up shards these by column
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
	s.frames = frames
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

// AppendPar is Append with any catch-up it runs fanned out over the
// pool. An append copies the round into its raw row and folds nothing;
// before a pending row would leave the retention band, and before the
// band's header slice regrows, the levels catch up on every pending
// round. A catch-up's boundary decisions, closed-bucket rows and
// retention bookkeeping stay on the calling goroutine; only the column
// arithmetic fans out, by column shard. Every column's folds touch only
// that column's state, so the result is bit-identical for any worker
// count, and a nil pool runs the column shards inline.
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
	// Expire first, so a full window's round reuses the row it expires.
	// The new round itself is never expired: t is not before t-ret.
	if ret := w.store.cfg.RawRetention; ret > 0 {
		cutoff := t - ret
		end := w.rawHead
		for end < len(w.raw) && w.raw[end].t < cutoff {
			end++
		}
		if end > w.folded {
			w.catchUp(p)
		}
		if drop := end - w.rawHead; drop > 0 {
			for ; w.rawHead < end; w.rawHead++ {
				if r := &w.raw[w.rawHead]; !r.shared && !w.heldOpen(w.rawBase+int64(w.rawHead)) {
					w.spare = append(w.spare, r.vals)
				}
			}
			w.droppedRounds += int64(drop)
			if w.rawHead*2 >= len(w.raw) {
				n := copy(w.raw, w.raw[w.rawHead:])
				w.raw = w.raw[:n]
				w.folded -= w.rawHead
				w.rawBase += int64(w.rawHead)
				w.rawHead = 0
			}
		}
	}
	if len(w.raw) == cap(w.raw) {
		w.catchUp(p)
	}
	var row []float64
	if n := len(w.spare); n > 0 {
		row = w.spare[n-1]
		w.spare = w.spare[:n-1]
		copy(row, values)
	} else {
		// make then copy is one allocation the runtime does not zero.
		row = make([]float64, len(values))
		copy(row, values)
	}
	w.raw = append(w.raw, frameRound{t: t, vals: row})
	return nil
}

// heldOpen reports whether some level's open bucket holds only round at,
// and so may yet close sharing that round's row.
func (w *FrameWriter) heldOpen(at int64) bool {
	for i := range w.levels {
		if l := &w.levels[i]; l.curCnt == 1 && l.openAt == at {
			return true
		}
	}
	return false
}

// catchUp folds the pending rounds raw[folded:] into every level. It is
// the only path by which rounds reach the levels; its caller holds w.mu
// for writing. Every boundary decision is made here first, serially:
// which bucket each round lands in, which buckets close, and the rows
// they close into. The column arithmetic then fans out over p by column
// shard (foldShard).
func (w *FrameWriter) catchUp(p *par.Pool) {
	pending := w.raw[w.folded:]
	if len(pending) == 0 {
		return
	}
	if cap(w.plan) < len(pending) {
		w.plan = make([][4]frameOp, len(pending))
	}
	w.plan = w.plan[:len(pending)]
	k := len(w.keys)
	first := w.rawBase + int64(w.folded)
	for j := range pending {
		t := pending[j].t
		for i := range w.levels {
			l := &w.levels[i]
			if t < l.curEnd {
				l.curCnt++
				w.plan[j][i] = opFold
				continue
			}
			var start time.Duration
			if t < l.curEnd+l.width {
				// Adjacent bucket — the steady-state rollover. No division.
				start = l.curEnd
			} else {
				start = t / l.width * l.width
			}
			op := opSeed
			if l.curEnd != 0 {
				b := frameBucket{start: l.curEnd - l.width, count: l.curCnt}
				if l.curCnt == 1 {
					b.cols = l.openRow
					if h := l.openAt - w.rawBase; h >= int64(w.rawHead) {
						w.raw[h].shared = true
					}
					if l.openAt >= first {
						w.plan[l.openAt-first][i] &^= opSeed
					}
				} else {
					b.cols = make([]float64, 3*k)
					w.closeRows = append(w.closeRows, b.cols)
					op |= opClose
				}
				l.closed = append(l.closed, b)
			}
			l.curEnd = start + l.width
			l.curCnt = 1
			l.openAt = first + int64(j)
			l.openRow = pending[j].vals
			w.plan[j][i] = op
		}
	}
	p.RunRanges(w.colShards, w.foldFn)
	w.folded = len(w.raw)
	clear(w.closeRows)
	w.closeRows = w.closeRows[:0]
}

// foldShard is the catch-up's shard body. It walks the shard's columns
// in blocks of frameBlock and replays the whole plan over each block:
// the pending rounds in time order, and for each its op on every level.
func (w *FrameWriter) foldShard(_ int, r par.Range) {
	k := len(w.keys)
	pending := w.raw[w.folded:]
	for lo := r.Lo; lo < r.Hi; lo += frameBlock {
		hi := min(lo+frameBlock, r.Hi)
		next := 0 // closeRows cursor: the plan closes the same rows per block
		for j, ops := range w.plan {
			vals := pending[j].vals[lo:hi]
			for i, op := range ops {
				l := &w.levels[i]
				if op == opFold {
					l.foldColumns(vals, lo)
					continue
				}
				if op&opClose != 0 {
					cols := w.closeRows[next]
					next++
					copy(cols[lo:hi], l.curSum[lo:hi])
					copy(cols[k+lo:k+hi], l.curMin[lo:hi])
					copy(cols[2*k+lo:2*k+hi], l.curMax[lo:hi])
				}
				if op&opSeed != 0 {
					l.seed(vals, lo)
				}
			}
		}
	}
}

// seed opens the bucket's columns from lo on with one round's values.
func (l *frameLevel) seed(vals []float64, lo int) {
	copy(l.curSum[lo:], vals)
	copy(l.curMin[lo:], vals)
	copy(l.curMax[lo:], vals)
}

// foldColumns folds one round's values into the open bucket's columns
// from lo on.
func (l *frameLevel) foldColumns(vals []float64, lo int) {
	hi := lo + len(vals)
	sum, mn, mx := l.curSum[lo:hi], l.curMin[lo:hi], l.curMax[lo:hi]
	for c, v := range vals {
		sum[c] += v
		if v < mn[c] {
			mn[c] = v
		}
		if v > mx[c] {
			mx[c] = v
		}
	}
}

// query materializes one column's buckets over [from, to) at res. Raw
// reads share the read lock with LatestInto; an aggregate read takes the
// lock for writing and catches the levels up inline first.
func (w *FrameWriter) query(col int, from, to time.Duration, res Resolution) ([]Bucket, error) {
	if res == ResRaw {
		return w.queryRaw(col, from, to), nil
	}
	li, err := levelIndex(res)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.catchUp(nil)
	k := len(w.keys)
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

// queryRaw synthesizes one bucket per retained round of column col in
// [from, to), bounding the range by binary search and allocating the
// result once at its exact size, as for a per-point series.
func (w *FrameWriter) queryRaw(col int, from, to time.Duration) []Bucket {
	w.mu.RLock()
	defer w.mu.RUnlock()
	band := w.raw[w.rawHead:]
	lo := sort.Search(len(band), func(i int) bool { return band[i].t >= from })
	hi := sort.Search(len(band), func(i int) bool { return band[i].t >= to })
	if lo == hi {
		return nil
	}
	out := make([]Bucket, hi-lo)
	for i, r := range band[lo:hi] {
		v := r.vals[col]
		out[i] = Bucket{Start: r.t, Count: 1, Sum: v, Min: v, Max: v}
	}
	return out
}

// stats folds the frame's storage accounting into out, catching the
// levels up inline first.
func (w *FrameWriter) stats(out *Stats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.catchUp(nil)
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
