package par

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestShardsCoverage: every n tiles [0, n) exactly, in order, with
// non-empty shards and aligned interior boundaries.
func TestShardsCoverage(t *testing.T) {
	sizes := []int{0, 1, 7, 511, 512, 513, 1023, 1024, 1025, 4096, 9999,
		MinShardLen*MaxShards - 1, MinShardLen * MaxShards, 100_000, 1_000_000}
	for _, n := range sizes {
		shards := Shards(n)
		if n <= 0 {
			if shards != nil {
				t.Fatalf("Shards(%d) = %v, want nil", n, shards)
			}
			continue
		}
		if len(shards) < 1 || len(shards) > MaxShards {
			t.Fatalf("Shards(%d): %d shards out of bounds", n, len(shards))
		}
		lo := 0
		for i, r := range shards {
			if r.Lo != lo {
				t.Fatalf("Shards(%d): shard %d starts at %d, want %d", n, i, r.Lo, lo)
			}
			if r.Len() <= 0 {
				t.Fatalf("Shards(%d): shard %d empty (%+v)", n, i, r)
			}
			if i < len(shards)-1 && r.Hi%shardAlign != 0 {
				t.Fatalf("Shards(%d): interior boundary %d not %d-aligned", n, r.Hi, shardAlign)
			}
			lo = r.Hi
		}
		if lo != n {
			t.Fatalf("Shards(%d): tiles up to %d, want %d", n, lo, n)
		}
	}
}

// TestShardsSizeOnly: the partition is a pure function of n — calling
// twice yields identical boundaries (no hidden state, no worker count).
func TestShardsSizeOnly(t *testing.T) {
	for _, n := range []int{100, 5000, 123_457} {
		a, b := Shards(n), Shards(n)
		if len(a) != len(b) {
			t.Fatalf("Shards(%d) nondeterministic shard count", n)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Shards(%d) shard %d differs: %+v vs %+v", n, i, a[i], b[i])
			}
		}
	}
}

// sumShardOrdered folds per-shard partial sums in shard order — the
// canonical reduction the simulator uses.
func sumShardOrdered(p *Pool, data []float64) float64 {
	shards := Shards(len(data))
	partials := make([]float64, len(shards))
	p.RunRanges(shards, func(shard int, r Range) {
		s := 0.0
		for _, v := range data[r.Lo:r.Hi] {
			s += v
		}
		partials[shard] = s
	})
	total := 0.0
	for _, s := range partials {
		total += s
	}
	return total
}

// TestDeterministicReduction: the shard-ordered fold is bit-identical
// across worker counts, including the nil (inline) pool, over data hard
// enough that regrouping the float additions would change bits.
func TestDeterministicReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]float64, 50_000)
	for i := range data {
		// Wildly varying magnitudes to make addition order matter.
		data[i] = rng.NormFloat64() * float64(int64(1)<<uint(rng.Intn(40)))
	}
	ref := sumShardOrdered(nil, data)
	for _, w := range []int{2, 3, 4, 8} {
		p := New(w)
		for rep := 0; rep < 3; rep++ {
			if got := sumShardOrdered(p, data); got != ref {
				t.Fatalf("workers=%d rep %d: sum %x != serial %x", w, rep, got, ref)
			}
		}
		p.Close()
	}
}

// TestRunRangesEveryShardOnce: each shard executes exactly once per call
// and the pool is reusable across many calls.
func TestRunRangesEveryShardOnce(t *testing.T) {
	p := New(4)
	defer p.Close()
	for call := 0; call < 50; call++ {
		n := 1 + (call*977)%20_000
		shards := Shards(n)
		counts := make([]atomic.Int32, len(shards))
		p.RunRanges(shards, func(shard int, r Range) {
			counts[shard].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("call %d: shard %d ran %d times", call, i, c)
			}
		}
	}
}

// TestPanicPropagation: a panic in one shard surfaces to the caller after
// all shards finish, and the pool remains usable afterwards.
func TestPanicPropagation(t *testing.T) {
	p := New(4)
	defer p.Close()
	shards := Shards(10_000)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want \"boom\"", r)
			}
		}()
		p.RunRanges(shards, func(shard int, r Range) {
			if shard == len(shards)/2 {
				panic("boom")
			}
		})
		t.Fatal("RunRanges returned without panicking")
	}()
	// Pool still healthy.
	var ran atomic.Int32
	p.RunRanges(shards, func(shard int, r Range) { ran.Add(1) })
	if int(ran.Load()) != len(shards) {
		t.Fatalf("post-panic call ran %d shards, want %d", ran.Load(), len(shards))
	}
}

// TestNilAndSmallPools: nil pools, workers<2 construction, and Close
// idempotence all behave as the inline executor contract promises.
func TestNilAndSmallPools(t *testing.T) {
	for _, w := range []int{-1, 0, 1} {
		if p := New(w); p != nil {
			t.Fatalf("New(%d) = %v, want nil", w, p)
		}
	}
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", p.Workers())
	}
	p.Close() // must not crash
	order := []int{}
	p.RunRanges(Shards(2000), func(shard int, r Range) { order = append(order, shard) })
	for i, s := range order {
		if s != i {
			t.Fatalf("nil pool ran shards out of order: %v", order)
		}
	}
	q := New(4)
	q.Close()
	q.Close() // idempotent
}

// TestAlignedFloats: base address 64-byte aligned, correct length, zeroed.
func TestAlignedFloats(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 63, 64, 1000, 12345} {
		s := AlignedFloats(n)
		if len(s) != n {
			t.Fatalf("AlignedFloats(%d) len %d", n, len(s))
		}
		if n == 0 {
			continue
		}
		if addr := uintptr(unsafe.Pointer(unsafe.SliceData(s))); addr%64 != 0 {
			t.Fatalf("AlignedFloats(%d) base %#x not 64-byte aligned", n, addr)
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("AlignedFloats(%d)[%d] = %v, want 0", n, i, v)
			}
		}
		// The cap fence keeps appends from silently sharing the pad.
		if cap(s) != n {
			t.Fatalf("AlignedFloats(%d) cap %d, want %d", n, cap(s), n)
		}
	}
}

// TestConcurrentStress exercises claim/wakeup under -race with oversized
// worker counts relative to shard counts and vice versa.
func TestConcurrentStress(t *testing.T) {
	for _, w := range []int{2, 8, 32} {
		p := New(w)
		for call := 0; call < 30; call++ {
			n := 1 + call*701
			shards := Shards(n)
			var sum atomic.Int64
			p.RunRanges(shards, func(shard int, r Range) {
				sum.Add(int64(r.Len()))
			})
			if int(sum.Load()) != n {
				t.Fatalf("w=%d n=%d: covered %d indexes", w, n, sum.Load())
			}
		}
		p.Close()
	}
}

// TestConcurrentCallersSharePool: N goroutines issue RunRanges against
// one shared pool at the same time. Each call must cover exactly its own
// shards exactly once — tasks are claim-isolated, so overlapping fan-outs
// may interleave on the workers but never cross-contaminate.
func TestConcurrentCallersSharePool(t *testing.T) {
	p := New(4)
	defer p.Close()
	const callers = 6
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for call := 0; call < 25; call++ {
				n := 100 + 997*((c+call)%7)
				shards := Shards(n)
				marks := make([]atomic.Int32, len(shards))
				var sum atomic.Int64
				p.RunRanges(shards, func(shard int, r Range) {
					marks[shard].Add(1)
					sum.Add(int64(r.Len()))
				})
				if int(sum.Load()) != n {
					errs <- fmt.Sprintf("caller %d call %d: covered %d of %d indexes", c, call, sum.Load(), n)
					return
				}
				for i := range marks {
					if got := marks[i].Load(); got != 1 {
						errs <- fmt.Sprintf("caller %d call %d: shard %d ran %d times", c, call, i, got)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentCallerPanicIsolated: a panicking shard function in one
// caller re-raises at that caller's RunRanges and leaves concurrent
// callers' fan-outs untouched.
func TestConcurrentCallerPanicIsolated(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	panicked := make(chan any, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { panicked <- recover() }()
		p.RunRanges(Shards(5000), func(shard int, r Range) {
			if shard == 1 {
				panic("boom")
			}
		})
	}()
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for call := 0; call < 20; call++ {
				n := 4096
				var sum atomic.Int64
				p.RunRanges(Shards(n), func(shard int, r Range) {
					sum.Add(int64(r.Len()))
				})
				if int(sum.Load()) != n {
					t.Errorf("clean caller covered %d of %d alongside a panicking caller", sum.Load(), n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := <-panicked; got != "boom" {
		t.Errorf("panicking caller recovered %v, want \"boom\"", got)
	}
}

// BenchmarkFanOut measures raw fan-out overhead plus a touch of work per
// element, across worker counts, on a fleet-sized slab.
func BenchmarkFanOut(b *testing.B) {
	const n = 100_000
	data := AlignedFloats(n)
	for i := range data {
		data[i] = float64(i%97) * 1.25
	}
	for _, w := range []int{1, 2, 4, 8} {
		if w > runtime.GOMAXPROCS(0) && w > 2 {
			// Still run: overhead under oversubscription is informative.
		}
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			p := New(w)
			defer p.Close()
			shards := Shards(n)
			partials := make([]float64, len(shards))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.RunRanges(shards, func(shard int, r Range) {
					s := 0.0
					for _, v := range data[r.Lo:r.Hi] {
						s += v * 1.000001
					}
					partials[shard] = s
				})
			}
		})
	}
}
