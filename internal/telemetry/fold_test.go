package telemetry

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/par"
)

// eagerSeries is the reference a per-point series must match: every
// append folds its point into all four levels at once, and the raw band
// keeps every point.
type eagerSeries struct {
	raw    []point
	levels [4]eagerLevel
}

type eagerLevel struct {
	width  time.Duration
	curEnd time.Duration
	cur    Bucket
	closed []Bucket
}

func newEagerSeries() *eagerSeries {
	return &eagerSeries{levels: [4]eagerLevel{
		{width: time.Minute},
		{width: 15 * time.Minute},
		{width: time.Hour},
		{width: 24 * time.Hour},
	}}
}

func (e *eagerSeries) append(t time.Duration, v float64) {
	e.raw = append(e.raw, point{t: t, v: v})
	for i := range e.levels {
		e.levels[i].fold(t, v)
	}
}

// fold is the per-append fold: the open bucket absorbs t, or closes and
// a new one opens at t's bucket.
func (l *eagerLevel) fold(t time.Duration, v float64) {
	if t < l.curEnd {
		l.cur.Count++
		l.cur.Sum += v
		if v < l.cur.Min {
			l.cur.Min = v
		}
		if v > l.cur.Max {
			l.cur.Max = v
		}
		return
	}
	var start time.Duration
	if t < l.curEnd+l.width {
		start = l.curEnd
	} else {
		start = t / l.width * l.width
	}
	if l.curEnd != 0 {
		l.closed = append(l.closed, l.cur)
	}
	l.curEnd = start + l.width
	l.cur = Bucket{Start: start, Count: 1, Sum: v, Min: v, Max: v}
}

// retained returns the raw points inside the retention window ret.
func (e *eagerSeries) retained(ret time.Duration) []point {
	if ret <= 0 || len(e.raw) == 0 {
		return e.raw
	}
	cutoff := e.raw[len(e.raw)-1].t - ret
	i := 0
	for i < len(e.raw) && e.raw[i].t < cutoff {
		i++
	}
	return e.raw[i:]
}

// query returns the reference's buckets overlapping [from, to) at res.
func (e *eagerSeries) query(from, to time.Duration, res Resolution, ret time.Duration) []Bucket {
	var out []Bucket
	if res == ResRaw {
		for _, p := range e.retained(ret) {
			if p.t >= from && p.t < to {
				out = append(out, Bucket{Start: p.t, Count: 1, Sum: p.v, Min: p.v, Max: p.v})
			}
		}
		return out
	}
	l := &e.levels[int(res-ResMinute)]
	for _, b := range l.closed {
		if b.Start+l.width > from && b.Start < to {
			out = append(out, b)
		}
	}
	if l.curEnd != 0 && l.curEnd > from && l.cur.Start < to {
		out = append(out, l.cur)
	}
	return out
}

// TestDeferredFoldMatchesEagerReference drives per-point series through
// all three append paths (Appender, Store.Append, Batch) with reads
// interleaved: Query at every resolution over random ranges, and Stats.
// Every read must match the eager per-append fold bit for bit, so a read
// path that skipped catching up on pending points would fail. Timestamps
// repeat, step by the 15 s cadence, or jump by up to 100 h; values are
// finite and non-integer, and none is -0, so == on buckets compares
// their bits.
func TestDeferredFoldMatchesEagerReference(t *testing.T) {
	const (
		keys        = 4
		appendsEach = 2500
	)
	resolutions := []Resolution{ResRaw, ResMinute, ResQuarter, ResHour, ResDay}
	for _, ret := range []time.Duration{0, time.Minute, 7 * time.Minute, time.Hour, 5 * time.Hour} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("ret=%v/seed=%d", ret, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				s := mustStore(t, Config{RawInterval: 15 * time.Second, RawRetention: ret, Shards: 2})
				names := make([]string, keys)
				apps := make([]*Appender, keys)
				refs := make([]*eagerSeries, keys)
				next := make([]time.Duration, keys)
				for k := range names {
					names[k] = fmt.Sprintf("srv%d/cpu", k)
					apps[k] = s.Appender(names[k])
					refs[k] = newEagerSeries()
				}
				var horizon time.Duration
				step := func() time.Duration {
					switch r := rng.Float64(); {
					case r < 0.6:
						return 15 * time.Second
					case r < 0.7:
						return 0
					case r < 0.9:
						return time.Duration(rng.Int63n(int64(10 * time.Minute)))
					case r < 0.98:
						return time.Duration(rng.Int63n(int64(2 * time.Hour)))
					default:
						return time.Duration(rng.Int63n(int64(100 * time.Hour)))
					}
				}
				check := func(k int, from, to time.Duration, res Resolution) {
					t.Helper()
					got, err := s.Query(names[k], from, to, res)
					if err != nil {
						t.Fatal(err)
					}
					requireSameBuckets(t, got, refs[k].query(from, to, res, ret),
						fmt.Sprintf("%s %v [%v, %v)", names[k], res, from, to))
				}
				checkStats := func() {
					t.Helper()
					want := Stats{Keys: keys}
					for _, ref := range refs {
						kept := int64(len(ref.retained(ret)))
						want.RawPoints += kept
						want.DroppedRaw += int64(len(ref.raw)) - kept
						for i := range ref.levels {
							l := &ref.levels[i]
							want.AggBuckets += int64(len(l.closed))
							if l.curEnd != 0 {
								want.AggBuckets++
							}
						}
					}
					if got := s.Stats(); got != want {
						t.Fatalf("stats %+v, want %+v", got, want)
					}
				}
				for n := 0; n < keys*appendsEach; {
					k := rng.Intn(keys)
					burst := 1
					path := rng.Intn(3)
					if path == 2 {
						burst = 1 + rng.Intn(8)
					}
					var b Batch
					if path == 2 {
						b = s.BeginBatch()
					}
					for i := 0; i < burst; i++ {
						ts := next[k]
						v := rng.NormFloat64()*40 + 100
						var err error
						switch path {
						case 0:
							err = apps[k].Append(ts, v)
						case 1:
							err = s.Append(names[k], ts, v)
						default:
							err = b.Append(apps[k], ts, v)
						}
						if err != nil {
							t.Fatal(err)
						}
						refs[k].append(ts, v)
						horizon = max(horizon, ts)
						next[k] = ts + step()
						n++
					}
					if path == 2 {
						b.End()
					}
					// Rejected samples change nothing.
					if rng.Intn(50) == 0 {
						if last := refs[k].raw[len(refs[k].raw)-1].t; last > 0 {
							if err := apps[k].Append(last-1, 1); err == nil {
								t.Fatal("out-of-order sample accepted")
							}
						}
						if err := s.Append(names[k], -time.Second, 1); err == nil {
							t.Fatal("negative timestamp accepted")
						}
					}
					switch r := rng.Intn(100); {
					case r < 8:
						from := time.Duration(rng.Int63n(int64(horizon) + 1))
						to := from + time.Duration(rng.Int63n(int64(horizon-from)+int64(time.Hour)))
						check(rng.Intn(keys), from, to, resolutions[rng.Intn(len(resolutions))])
					case r < 10:
						check(rng.Intn(keys), 0, 1<<62, resolutions[rng.Intn(len(resolutions))])
					case r < 11:
						checkStats()
					}
				}
				for k := range names {
					for _, res := range resolutions {
						check(k, 0, 1<<62, res)
					}
				}
				checkStats()
			})
		}
	}
}

// TestDeferredFrameFoldMatchesEagerReference drives frames through
// AppendPar, inline and on a 2-worker pool, with reads interleved at
// random rounds: Query at every resolution over random ranges, and
// Stats. Every column must match its own eager per-append reference bit
// for bit, and the storage counts must match the references'. The
// cadence switches at random between steps of 0, 15 s, 1 min and 15 min,
// with gaps of up to 5 h, so single-round buckets open and close at
// every level, some while their round's row leaves the retention band.
// 1,100 columns make two column shards of several blocks each.
func TestDeferredFrameFoldMatchesEagerReference(t *testing.T) {
	resolutions := []Resolution{ResRaw, ResMinute, ResQuarter, ResHour, ResDay}
	steps := []time.Duration{0, 15 * time.Second, time.Minute, 15 * time.Minute}
	pool := par.New(2)
	defer pool.Close()
	for _, width := range []int{1, 5, 1100} {
		for _, ret := range []time.Duration{0, time.Minute, 7 * time.Minute, time.Hour} {
			for seed := int64(1); seed <= 4; seed++ {
				for _, p := range []*par.Pool{nil, pool} {
					name := fmt.Sprintf("width=%d/ret=%v/seed=%d/workers=%d", width, ret, seed, p.Workers())
					// The wide frame runs fewer rounds: its per-column
					// references dominate the test's time.
					rounds := 400
					if width > 5 {
						rounds = 120
					}
					t.Run(name, func(t *testing.T) {
						checkFrameAgainstEager(t, width, ret, seed, p, rounds, resolutions, steps)
					})
				}
			}
		}
	}
}

func checkFrameAgainstEager(t *testing.T, width int, ret time.Duration, seed int64, p *par.Pool, rounds int, resolutions []Resolution, steps []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	s := mustStore(t, Config{RawInterval: 15 * time.Second, RawRetention: ret, Shards: 2})
	keys := make([]string, width)
	refs := make([]*eagerSeries, width)
	for c := range keys {
		keys[c] = fmt.Sprintf("srv%04d/power", c)
		refs[c] = newEagerSeries()
		refs[c].raw = make([]point, 0, rounds)
	}
	fw, err := s.Frames(keys)
	if err != nil {
		t.Fatal(err)
	}
	check := func(c int, from, to time.Duration, res Resolution) {
		t.Helper()
		got, err := s.Query(keys[c], from, to, res)
		if err != nil {
			t.Fatal(err)
		}
		// The context is formatted only on a mismatch: the final check
		// queries every column.
		if want := refs[c].query(from, to, res, ret); !slices.Equal(got, want) {
			requireSameBuckets(t, got, want, fmt.Sprintf("%s %v [%v, %v)", keys[c], res, from, to))
		}
	}
	checkStats := func() {
		t.Helper()
		want := Stats{Keys: width}
		for _, ref := range refs {
			kept := int64(len(ref.retained(ret)))
			want.RawPoints += kept
			want.DroppedRaw += int64(len(ref.raw)) - kept
			for i := range ref.levels {
				l := &ref.levels[i]
				want.AggBuckets += int64(len(l.closed))
				if l.curEnd != 0 {
					want.AggBuckets++
				}
			}
		}
		if got := s.Stats(); got != want {
			t.Fatalf("stats %+v, want %+v", got, want)
		}
	}
	vals := make([]float64, width)
	step := steps[rng.Intn(len(steps))]
	var ts time.Duration
	for r := 0; r < rounds; r++ {
		for c := range vals {
			vals[c] = rng.NormFloat64()*40 + 100
		}
		if err := fw.AppendPar(ts, vals, p); err != nil {
			t.Fatal(err)
		}
		for c, v := range vals {
			refs[c].append(ts, v)
		}
		// Rejected rounds change nothing.
		if ts > 0 && rng.Intn(50) == 0 {
			if err := fw.AppendPar(ts-1, vals, p); err == nil {
				t.Fatal("out-of-order round accepted")
			}
		}
		switch x := rng.Intn(100); {
		case x < 6:
			from := time.Duration(rng.Int63n(int64(ts) + 1))
			to := from + time.Duration(rng.Int63n(int64(ts-from)+int64(time.Hour)))
			check(rng.Intn(width), from, to, resolutions[rng.Intn(len(resolutions))])
		case x < 8:
			check(rng.Intn(width), 0, 1<<62, resolutions[rng.Intn(len(resolutions))])
		case x < 9:
			checkStats()
		}
		switch x := rng.Intn(100); {
		case x < 4:
			step = steps[rng.Intn(len(steps))]
		case x < 5:
			ts += time.Duration(rng.Int63n(int64(5 * time.Hour)))
		}
		ts += step
	}
	for c := range keys {
		for _, res := range resolutions {
			check(c, 0, 1<<62, res)
		}
	}
	checkStats()
}
