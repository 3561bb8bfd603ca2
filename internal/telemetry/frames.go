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
// Storage is rows, each written once and never regrown: one per round,
// and one per closed bucket of several rounds. A row longer than slabRow
// is an allocation of its own, at its exact size; shorter rows are
// carved from shared slabs, so a narrow frame (a key sampled on its own
// schedule is a one-column frame) makes no allocation per row. An 8-byte
// rowRef names each row, and closed buckets go in fixed-size chunks, so
// growing the store copies no values and no closed bucket. A bucket that
// closes holding a single round shares that round's row instead of
// copying it, and rows that retention expires are recycled for later
// rounds unless a bucket shares them or may yet share them.
//
// Framed keys live in the parent Store's namespace, where Query, Stats,
// Keys and the derived analyses (DailyAverages, HourlyPattern,
// Anomalies, CorrelateDetrended) read them. Every bucket is bit-identical
// to folding each round into every level as it is appended.
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
	// headers down once at least half of raw has expired, so its copying
	// is amortized O(1) per round, and adds the rounds it cuts to
	// rawBase, the absolute index of raw[0].
	raw           []frameRound
	rawHead       int
	rawBase       int64
	spare         []rowRef
	droppedRounds int64
	// raw[:folded] are in the levels; raw[folded:] wait for catchUp.
	// Pending rows already sit in the band, so deferring their folds
	// costs no memory.
	folded int
	levels [4]frameLevel
	// Row storage (alloc, row): each slab is one long row, or a slab of
	// short rows filled up to its length. tail indexes the slab short
	// rows are carved from, -1 before the first.
	slabs [][]float64
	tail  int
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

// rowRef names a row of a frame's storage: its slab's index in bits
// 32–62, and its offset in that slab in the low 32. In a raw round's
// ref, bit 63 (sharedRow) marks a row that a closed single-round bucket
// also holds, which retention must not recycle.
type rowRef uint64

const sharedRow rowRef = 1 << 63

const (
	// slabLen is the size of a full slab of short rows, in floats: 4 KB.
	// A frame's first slab holds slabRow floats and each next one twice
	// its predecessor up to slabLen, so a frame of few rounds keeps a
	// small slab.
	slabLen = 512
	// slabRow is the longest row carved from a slab, so a full slab
	// wastes less than an eighth of itself at its tail.
	slabRow = slabLen / 8
)

// alloc stores a new row of n floats, a copy of src (zero past it), and
// returns its ref.
func (w *FrameWriter) alloc(n int, src []float64) rowRef {
	if n > slabRow {
		// make then copy is one allocation the runtime does not zero
		// under the copy.
		row := make([]float64, n)
		copy(row, src)
		w.slabs = append(w.slabs, row)
		return rowRef(len(w.slabs)-1) << 32
	}
	if w.tail < 0 || len(w.slabs[w.tail])+n > cap(w.slabs[w.tail]) {
		size := slabRow
		if w.tail >= 0 {
			size = min(2*cap(w.slabs[w.tail]), slabLen)
		}
		w.tail = len(w.slabs)
		w.slabs = append(w.slabs, make([]float64, 0, size))
	}
	slab := w.slabs[w.tail]
	off := len(slab)
	w.slabs[w.tail] = slab[:off+n]
	copy(slab[off:off+n], src)
	return rowRef(w.tail)<<32 | rowRef(off)
}

// row returns the n floats of the row ref names.
func (w *FrameWriter) row(ref rowRef, n int) []float64 {
	off := int(uint32(ref))
	return w.slabs[(ref&^sharedRow)>>32][off : off+n : off+n]
}

// frameRound is one retained raw round: its timestamp and K-wide row.
type frameRound struct {
	t   time.Duration
	row rowRef
}

// frameLevel is one aggregation level of the frame pyramid. The open
// bucket is columnar: a shared start/count plus K-wide sum/min/max
// columns, the aligned buffers a catch-up shards over. Closing a bucket
// of several rounds copies them into one row. openAt and openRow name
// the round that opened the open bucket (its absolute index and its
// row): a bucket that closes holding only that round shares the row.
//
// Closed buckets go in fixed-size chunks, each allocated once when the
// first bucket lands in it and never regrown: closing a bucket copies no
// earlier bucket, and growing the level copies only chunk pointers.
type frameLevel struct {
	width   time.Duration
	curEnd  time.Duration // exclusive end of the open bucket; 0 while empty
	curCnt  int64
	curSum  []float64
	curMin  []float64
	curMax  []float64
	openAt  int64
	openRow rowRef
	// Closed buckets, dense and in time order: bucket i is
	// chunks[i/chunkLen][i%chunkLen], and n counts them.
	chunks []*[chunkLen]frameBucket
	n      int
}

// chunkLen is the number of closed buckets in one chunk of a level. 32
// buckets are 768 bytes, one of the runtime's size classes, so a chunk
// is allocated at exactly its final size.
const chunkLen = 32

// close appends b as the level's newest closed bucket.
func (l *frameLevel) close(b frameBucket) {
	i := l.n % chunkLen
	if i == 0 {
		l.chunks = append(l.chunks, new([chunkLen]frameBucket))
	}
	l.chunks[len(l.chunks)-1][i] = b
	l.n++
}

// at returns closed bucket i.
func (l *frameLevel) at(i int) *frameBucket { return &l.chunks[i/chunkLen][i%chunkLen] }

// frameBucket is one closed bucket of a frame level. Its row holds the
// bucket's columns as sum | min | max, 3K wide — or, when the bucket
// holds a single round, whose min, max and sum are that round's values
// bit for bit, the round's K-wide raw row itself.
type frameBucket struct {
	start time.Duration
	count int64
	row   rowRef
}

// bucket materializes column col of closed bucket b.
func (w *FrameWriter) bucket(b *frameBucket, col int) Bucket {
	k := len(w.keys)
	if b.count == 1 {
		v := w.row(b.row, k)[col]
		return Bucket{Start: b.start, Count: 1, Sum: v, Min: v, Max: v}
	}
	cols := w.row(b.row, 3*k)
	return Bucket{Start: b.start, Count: b.count, Sum: cols[col], Min: cols[k+col], Max: cols[2*k+col]}
}

// frameRef resolves a framed key to its writer and column.
type frameRef struct {
	w   *FrameWriter
	col int
}

// Frames declares keys as one synchronously-sampled frame and returns
// its writer. The keys must be distinct and must not already belong to
// another frame; they are created empty. The keys go into the registry
// in place, under its lock, so registering costs O(len(keys)); if one is
// rejected, those this call already added are removed before the lock
// is released, so no reader sees a partial frame.
func (s *Store) Frames(keys []string) (*FrameWriter, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("telemetry: frame needs at least one key")
	}
	k := len(keys)
	w := &FrameWriter{store: s, keys: append([]string(nil), keys...), tail: -1, colShards: par.Shards(k)}
	w.foldFn = w.foldShard
	// Cache-line-aligned columns, all twelve in one buffer, each starting
	// on a 64-byte line: a catch-up shards them by column range on 64-byte
	// boundaries, so aligned bases keep concurrent shards off each other's
	// lines.
	stride := (k + 7) / 8 * 8
	cols := par.AlignedFloats(12 * stride)
	col := func(i int) []float64 { return cols[i*stride : i*stride+k : i*stride+k] }
	for i, width := range [...]time.Duration{time.Minute, 15 * time.Minute, time.Hour, 24 * time.Hour} {
		w.levels[i] = frameLevel{width: width, curSum: col(3 * i), curMin: col(3*i + 1), curMax: col(3*i + 2)}
	}
	s.framesMu.Lock()
	defer s.framesMu.Unlock()
	if s.frames == nil {
		// The first frame sizes the registry, so a fleet-wide frame
		// fills it without regrowing it.
		s.frames = make(map[string]frameRef, k)
	}
	for c, key := range keys {
		if ref, ok := s.frames[key]; ok {
			for _, added := range keys[:c] {
				delete(s.frames, added)
			}
			if ref.w == w {
				return nil, fmt.Errorf("telemetry: duplicate frame key %q", key)
			}
			return nil, fmt.Errorf("telemetry: key %q already belongs to a frame", key)
		}
		s.frames[key] = frameRef{w: w, col: c}
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
// under the frame's read lock — no bucket materialization and no
// aggregation.
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
	copy(dst, w.row(last.row, k))
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
				if r := &w.raw[w.rawHead]; r.row&sharedRow == 0 && !w.heldOpen(w.rawBase+int64(w.rawHead)) {
					w.spare = append(w.spare, r.row)
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
	var row rowRef
	if n := len(w.spare); n > 0 {
		row = w.spare[n-1]
		w.spare = w.spare[:n-1]
		copy(w.row(row, len(values)), values)
	} else {
		row = w.alloc(len(values), values)
	}
	w.raw = append(w.raw, frameRound{t: t, row: row})
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
					b.row = l.openRow
					if h := l.openAt - w.rawBase; h >= int64(w.rawHead) {
						w.raw[h].row |= sharedRow
					}
					if l.openAt >= first {
						w.plan[l.openAt-first][i] &^= opSeed
					}
				} else {
					b.row = w.alloc(3*k, nil)
					w.closeRows = append(w.closeRows, w.row(b.row, 3*k))
					op |= opClose
				}
				l.close(b)
			}
			l.curEnd = start + l.width
			l.curCnt = 1
			l.openAt = first + int64(j)
			l.openRow = pending[j].row
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
			vals := w.row(pending[j].row, k)[lo:hi]
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
	l := &w.levels[li]
	lo := sort.Search(l.n, func(i int) bool {
		return l.at(i).start+l.width > from
	})
	hi := sort.Search(l.n, func(i int) bool {
		return l.at(i).start >= to
	})
	takeCur := l.curEnd != 0 && l.curEnd > from && l.curEnd-l.width < to
	n := hi - lo
	if takeCur {
		n++
	}
	out := make([]Bucket, 0, n)
	for i := lo; i < hi; i++ {
		out = append(out, w.bucket(l.at(i), col))
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
// result once at its exact size (nil when the range holds no round).
func (w *FrameWriter) queryRaw(col int, from, to time.Duration) []Bucket {
	w.mu.RLock()
	defer w.mu.RUnlock()
	k := len(w.keys)
	band := w.raw[w.rawHead:]
	lo := sort.Search(len(band), func(i int) bool { return band[i].t >= from })
	hi := sort.Search(len(band), func(i int) bool { return band[i].t >= to })
	if lo == hi {
		return nil
	}
	out := make([]Bucket, hi-lo)
	for i, r := range band[lo:hi] {
		v := w.row(r.row, k)[col]
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
		n := int64(l.n)
		if l.curEnd != 0 {
			n++
		}
		out.AggBuckets += n * k
	}
}
