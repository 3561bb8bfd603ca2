package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/par"
)

// widthsStep is the time a round of FuzzFrameWidths advances by, picked
// by the low three bits of its step byte: the same instant, short steps,
// steps to the next 15-minute, hour and day boundary, and jumps.
func widthsStep(t time.Duration, b byte) time.Duration {
	switch b % 8 {
	case 0:
		return t
	case 1:
		return t + 15*time.Second
	case 2:
		return t + time.Minute
	case 3:
		return (t/(15*time.Minute) + 1) * 15 * time.Minute
	case 4:
		return (t/time.Hour + 1) * time.Hour
	case 5:
		return (t/(24*time.Hour) + 1) * 24 * time.Hour
	case 6:
		return t + time.Second
	}
	return t + time.Duration(1+b>>3&7)*7*time.Hour + 13*time.Second
}

// widthsValue draws a column value: often +0, sometimes NaN or ±Inf,
// otherwise a normal sample of either sign. A -0 becomes +0: a frame
// reads the columns a round does not write as +0, which a -0 would not
// match bit for bit.
func widthsValue(rng *rand.Rand) float64 {
	switch r := rng.Intn(16); {
	case r < 4:
		return 0
	case r == 4:
		return math.NaN()
	case r == 5:
		return math.Inf(1)
	case r == 6:
		return math.Inf(-1)
	}
	if v := rng.NormFloat64() * 50; v != 0 {
		return v
	}
	return 0
}

// FuzzFrameWidths holds a frame fed rounds narrower than itself to a
// frame fed the same rounds zero-padded to full width, bit for bit.
//
// data[0] picks the frame width: 1–64 (full-width rows carved from
// slabs) below 128, and 65–1081 (rows of their own, resliced or replaced
// when recycled, over several column blocks and, from 1024 columns, two
// column shards) from 128 on. data[1] picks the raw retention: none, or
// 2 min, 20 min or 3 h, so rows recycle. data[2]'s low bit runs the
// catch-ups on a 2-worker pool instead of inline. Each next pair of
// bytes is a round (200 at most): its step (widthsStep), and its width
// in [0, K]. The first three step bytes with their top four bits set
// also compare the two frames after their rounds, as does the end of the
// input. A compare reads every column at every resolution through Query,
// and Stats and LatestInto.
func FuzzFrameWidths(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, head := range [][3]byte{{4, 0, 0}, {63, 1, 1}, {128, 2, 0}, {150, 3, 1}, {255, 1, 1}, {200, 2, 1}} {
		data := append([]byte(nil), head[:]...)
		for r := 0; r < 90; r++ {
			step, width := byte(rng.Intn(256))&^0xf0, byte(rng.Intn(256))
			if r%30 == 29 {
				step |= 0xf0 // compare at three rounds and at the end
			}
			switch r % 11 {
			case 3:
				width = 0
			case 7:
				width = 255
			}
			data = append(data, step, width)
		}
		f.Add(rng.Int63(), data)
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) < 3 {
			return
		}
		k := 1 + int(data[0])%64
		if data[0] >= 128 {
			k = 65 + int(data[0]-128)*8
		}
		ret := [...]time.Duration{0, 2 * time.Minute, 20 * time.Minute, 3 * time.Hour}[data[1]%4]
		var p *par.Pool
		if data[2]&1 != 0 {
			p = par.New(2)
			defer p.Close()
		}
		keys := make([]string, k)
		for c := range keys {
			keys[c] = fmt.Sprintf("c%04d", c)
		}
		trimmed, full := mustStore(t, Config{RawRetention: ret}), mustStore(t, Config{RawRetention: ret})
		tw, fw := mustFrame(t, trimmed, keys...), mustFrame(t, full, keys...)

		vrng := rand.New(rand.NewSource(seed))
		padded := make([]float64, k)
		var now time.Duration
		rounds := data[3:]
		if len(rounds) > 400 {
			rounds = rounds[:400]
		}
		compares := 0
		for r := 0; r+1 < len(rounds); r += 2 {
			now = widthsStep(now, rounds[r])
			n := int(rounds[r+1]) * k / 255
			clear(padded)
			for c := range n {
				padded[c] = widthsValue(vrng)
			}
			if err := tw.AppendPar(now, padded[:n], p); err != nil {
				t.Fatal(err)
			}
			if err := fw.AppendPar(now, padded, p); err != nil {
				t.Fatal(err)
			}
			if rounds[r]&0xf0 == 0xf0 && compares < 3 {
				compares++
				requireSameFrames(t, fmt.Sprintf("round %d at %v", r/2, now), trimmed, full, tw, fw)
			}
		}
		requireSameFrames(t, "end", trimmed, full, tw, fw)
	})
}

// requireSameFrames compares two stores of one frame each bit for bit:
// every column at every resolution, the storage accounting, and the
// latest round.
func requireSameFrames(t *testing.T, at string, got, want *Store, gw, ww *FrameWriter) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, key := range gw.Keys() {
		for _, res := range []Resolution{ResRaw, ResMinute, ResQuarter, ResHour, ResDay} {
			gb, err := got.Query(key, 0, 1<<62, res)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := want.Query(key, 0, 1<<62, res)
			if err != nil {
				t.Fatal(err)
			}
			if len(gb) != len(wb) {
				t.Fatalf("%s: %s %v: %d buckets, zero-padded frame %d", at, key, res, len(gb), len(wb))
			}
			for i, g := range gb {
				w := wb[i]
				if g.Start != w.Start || g.Count != w.Count || !same(g.Sum, w.Sum) || !same(g.Min, w.Min) || !same(g.Max, w.Max) {
					t.Fatalf("%s: %s %v bucket %d = %+v, zero-padded frame %+v", at, key, res, i, g, w)
				}
			}
		}
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("%s: stats %+v, zero-padded frame %+v", at, g, w)
	}
	sentinel := math.Float64frombits(0x7ff0_0000_dead_beef)
	gl, wl := make([]float64, gw.Width()+1), make([]float64, ww.Width()+1)
	for i := range gl {
		gl[i], wl[i] = sentinel, sentinel
	}
	gt, gok := gw.LatestInto(gl)
	wt, wok := ww.LatestInto(wl)
	if gt != wt || gok != wok {
		t.Fatalf("%s: latest round at %v (%v), zero-padded frame %v (%v)", at, gt, gok, wt, wok)
	}
	for i := range gl {
		if !same(gl[i], wl[i]) {
			t.Fatalf("%s: latest round column %d = %v, zero-padded frame %v", at, i, gl[i], wl[i])
		}
	}
}

// TestFrameWidthsRecycleRows feeds a 4,096-column frame diurnal round
// widths, 30–80% of the frame, at 15 s and at 1 min with 1 h retention.
// Three "days" are compressed into 2-hour periods, so the run keeps the
// 6-hour horizon of TestFrameAllocationTracksRetention: every closed
// bucket is kept, and three real days would keep about 400 MB of closed
// rows at full width. Recycled rows are resliced as the widths fall and
// replaced as they rise. The run must allocate less than the same rounds
// at full width, keep its spare rows within the band, and hold at most
// (band rounds + 1) × Width() floats in the rows of the raw band and the
// spares (a recycled row never outgrows the frame).
func TestFrameWidthsRecycleRows(t *testing.T) {
	const (
		width   = 4096
		horizon = 6 * time.Hour
		day     = 2 * time.Hour
	)
	keys := make([]string, width)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	vals := make([]float64, width)
	for _, step := range []time.Duration{15 * time.Second, time.Minute} {
		t.Run(step.String(), func(t *testing.T) {
			run := func(trim bool) uint64 {
				s := mustStore(t, Config{RawRetention: time.Hour})
				fw, err := s.Frames(keys)
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for now := time.Duration(0); now < horizon; now += step {
					phase := 2 * math.Pi * float64(now%day) / float64(day)
					n := int(width * (0.55 + 0.25*math.Sin(phase)))
					clear(vals)
					for c := range n {
						vals[c] = float64(c) + now.Minutes()
					}
					round := vals
					if trim {
						round = vals[:n]
					}
					if err := fw.Append(now, round); err != nil {
						t.Fatal(err)
					}
					if trim {
						requireRawRowsBounded(t, fw)
					}
				}
				s.Stats()
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			full := run(false)
			trimmed := run(true)
			t.Logf("allocated %.1f MB trimmed, %.1f MB at full width (%.2fx)", float64(trimmed)/1e6, float64(full)/1e6, float64(trimmed)/float64(full))
			if trimmed >= full {
				t.Errorf("trimmed rounds allocated %d bytes, full-width rounds %d", trimmed, full)
			}
		})
	}
}

// requireRawRowsBounded checks that fw keeps its spare rows within its
// raw band, and that the rows of the band and the spares hold at most
// (band rounds + 1) × Width() floats.
func requireRawRowsBounded(t *testing.T, fw *FrameWriter) {
	t.Helper()
	band := fw.raw[fw.rawHead:]
	if len(fw.spare) > len(band) {
		t.Fatalf("%d spare rows for a %d-round band", len(fw.spare), len(band))
	}
	held := 0
	for _, r := range band {
		held += cap(fw.slabs[(r.row&^sharedRow)>>32])
	}
	for _, ref := range fw.spare {
		held += cap(fw.slabs[ref>>32])
	}
	if limit := (len(band) + 1) * fw.Width(); held > limit {
		t.Fatalf("raw band of %d rounds and %d spare rows hold %d floats, want at most %d", len(band), len(fw.spare), held, limit)
	}
}
