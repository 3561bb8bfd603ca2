// Package core implements the paper's primary contribution: the
// macro-resource management (MRM) layer of Figure 4. It assembles the
// substrates — servers, the power-distribution tree, the cooling room and
// plant, telemetry — into a data center; runs coordination policies that
// jointly decide server on/off state, DVFS operating points, load
// dispatch, power caps, and cooling-aware activation; and exposes both
// the coordinated policies the paper calls for and the oblivious
// compositions it warns against (§5.1), so the difference is measurable.
package core

import (
	"fmt"
	"time"

	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rebaseEvery is how many MaybeRebase calls (telemetry sample rounds)
// pass between exact recomputations of the floating-point running sums.
// Incremental maintenance drifts by ~1 ulp per applied delta; rebasing at
// this cadence keeps the drift many orders of magnitude below the 1e-6
// golden-fixture tolerance while staying O(N) only once per window.
const rebaseEvery = 64

// Fleet manages an ordered set of servers as one elastic pool: power
// servers up or down to a target count, dispatch offered load over the
// active ones, and report aggregate capacity and power.
//
// The servers are the slots of one server.Block, whose columns hold every
// per-server field and whose sums — total power and energy, on/active
// counts, trips, boots, per-rack/per-zone power — are updated where a
// column is written, so aggregate accessors are O(1) reads. The fleet
// runs its per-tick loops (both dispatch passes, Sync, SetPStateAll, the
// trip scan and the sample fill) over the columns, one kernel per shard
// of the size-only par partition of the slots; each shard folds into its
// own partial sums, merged in shard order, so any worker count yields
// the same bits.
//
// Slot order is the activation order: SetTarget powers servers on from
// slot 0 up and sheds them from the top, where an elastic fleet's Off
// servers gather, with one block kernel per call whose boots or
// shutdowns one engine event completes. The block keeps a live bound:
// every slot from it on holds an Off server (server.Block.LiveEnd). The
// dispatch passes, Sync, the trip scan and the sample fill run only over
// the shards before the bound, clipped at it, so their cost follows the
// servers that are not Off rather than the fleet size; the shards
// themselves never move.
// Dispatch, Sync and the trip scan write no Off server.
type Fleet struct {
	block   *server.Block
	servers []*server.Server
	engine  *sim.Engine
	// switchOns counts power-on transitions (oscillation diagnostic).
	switchOns  int
	switchOffs int

	rebaseTick int
	// Pre-clamp rebase drift accounting: the clamped accessors (PowerW,
	// RackPowerW, ZonePowerW) floor ulp-scale negative drift at zero,
	// which is correct for physics but would silently absorb a real
	// accounting bug. Each Rebase therefore records how far the
	// incremental sums had wandered from the exact recompute — the
	// magnitude the clamp would otherwise mask — and VerifyAggregates
	// fails when it exceeds the tolerance a rebase window may accumulate.
	lastRebaseDriftW float64 // max |incremental − exact| at the last rebase
	maxRebaseDriftW  float64 // lifetime high-water mark of the above
	lastRebaseRefW   float64 // exact total power at the last rebase (drift scale)

	// shards partitions the slots purely by size, never by worker count.
	shards []par.Range
	// acc is one padded accumulator per shard: the shard's partial sums
	// and the per-loop scalars the fleet folds after a fan-out.
	acc []shardAcc
	// pool executes shard fan-outs; nil runs them inline (workers=1).
	pool *par.Pool
	// rebases counts exact Rebase recomputations, so tests can pin the
	// once-per-sample-round scheduling under parallel sampling.
	rebases int
	// The shard bodies, bound once in NewFleet so a fan-out allocates no
	// closure, and the per-call inputs they read.
	capacityFn, applyFn, syncFn, pstateFn, inletFn func(int, par.Range)
	loopNow                                        time.Duration
	loopEnd                                        int
	fill                                           server.Fill
	pstateIdx                                      int
	inletOf                                        []float64
}

// shardAcc collects one shard's share of a column loop. Padded so
// adjacent shards' accumulators, written concurrently by different
// workers, never share a cache line.
type shardAcc struct {
	sums   server.Sums
	capSum float64
	_      [64]byte
}

// NewFleet builds a fleet of n servers from cfg, all initially off.
// Names are suffixed with the index.
func NewFleet(e *sim.Engine, cfg server.Config, n int) (*Fleet, error) {
	b, err := server.NewBlock(cfg, n)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		block:   b,
		engine:  e,
		servers: b.Servers(),
		shards:  par.Shards(n),
	}
	f.acc = make([]shardAcc, len(f.shards))
	f.capacityFn = f.capacityShard
	f.applyFn = f.applyShard
	f.syncFn = f.syncShard
	f.pstateFn = f.pstateShard
	f.inletFn = f.inletShard
	e.Register(f)
	return f, nil
}

// SetParallel installs the worker pool that executes the fleet's shard
// fan-outs. A nil pool (or a single-shard fleet) runs them inline on the
// calling goroutine; the produced bits are identical either way, because
// shard structure never depends on the pool.
func (f *Fleet) SetParallel(p *par.Pool) { f.pool = p }

// Pool returns the installed worker pool (nil means inline execution).
func (f *Fleet) Pool() *par.Pool { return f.pool }

// mergeShards folds every shard's partial sums into the block's in shard
// order, so the float results do not depend on which worker ran a shard.
func (f *Fleet) mergeShards() {
	for sh := range f.acc {
		f.block.Merge(&f.acc[sh].sums)
	}
}

// TrackChanges turns on change tracking (see server.Block.TrackChanges).
func (f *Fleet) TrackChanges() { f.block.TrackChanges() }

// Changed returns the slots that changed since the last ResetChanged,
// each once, a sharded loop's in shard order; always empty on a fleet
// that does not track changes.
func (f *Fleet) Changed() []int32 { return f.block.Changed() }

// ResetChanged empties the change set.
func (f *Fleet) ResetChanged() { f.block.ResetChanged() }

// SetPowerGroups places the servers: it installs slot→rack and
// slot→zone maps (copied) and maintains per-group power sums from then
// on. A handle keeps its slot, so a second call moves handles to other
// racks and zones: it must come before anything caches a server's rack
// or zone, and unless every server is Off it errs and changes nothing.
// It reuses the first call's slices when the group counts match.
func (f *Fleet) SetPowerGroups(rackOf, zoneOf []int, nRacks, nZones int) error {
	if len(rackOf) != len(f.servers) || len(zoneOf) != len(f.servers) {
		return fmt.Errorf("core: power groups sized %d/%d for fleet of %d",
			len(rackOf), len(zoneOf), len(f.servers))
	}
	for i := range rackOf {
		if rackOf[i] < 0 || rackOf[i] >= nRacks {
			return fmt.Errorf("core: slot %d mapped to invalid rack %d", i, rackOf[i])
		}
		if zoneOf[i] < 0 || zoneOf[i] >= nZones {
			return fmt.Errorf("core: slot %d mapped to invalid zone %d", i, zoneOf[i])
		}
	}
	if end := f.block.LiveEnd(); end > 0 && f.block.Sums().Rack != nil {
		s := f.servers[end-1]
		return fmt.Errorf("core: server %s is %v; servers change racks only while every one is off", s.Name(), s.State())
	}
	f.block.SetGroups(rackOf, zoneOf, nRacks, nZones)
	if p := &f.acc[0].sums; len(p.Rack) != nRacks || len(p.Zone) != nZones {
		for sh := range f.acc {
			f.acc[sh].sums = f.block.Partial()
		}
	}
	// Populate the just-installed group sums without recording drift:
	// they have no incremental history under these maps, so the gap to
	// the exact sums is installation, not drift.
	f.rebases++
	f.block.Rebase()
	return nil
}

// RackPowerW reports the instantaneous draw of physical rack r
// (requires SetPowerGroups). Clamped at zero: incremental maintenance
// can leave an all-off group a few ulps below it.
func (f *Fleet) RackPowerW(r int) float64 { return max(0, f.block.Sums().Rack[r]) }

// ZonePowerW reports the instantaneous draw dissipating into cooling
// zone z (requires SetPowerGroups). Clamped at zero like RackPowerW.
func (f *Fleet) ZonePowerW(z int) float64 { return max(0, f.block.Sums().Zone[z]) }

// Rebase recomputes the floating-point running sums (total, per-rack and
// per-zone power, total energy) exactly from the columns, discarding
// accumulated incremental rounding drift. Counters (on, active, trips)
// are deliberately left incremental so an accounting bug stays
// detectable by VerifyAggregates. The magnitude of the discarded power
// drift is recorded (see RebaseDrift) rather than silently absorbed.
func (f *Fleet) Rebase() {
	f.rebases++
	f.lastRebaseDriftW, f.lastRebaseRefW = f.block.Rebase()
	f.maxRebaseDriftW = max(f.maxRebaseDriftW, f.lastRebaseDriftW)
}

// RebaseDrift reports the pre-clamp power drift the incremental sums
// had accumulated when they were last rebased (lastW) and the largest
// such drift seen over the fleet's lifetime (maxW). Live exporters
// publish these as gauges so accounting decay is observable instead of
// being floored away by the non-negative clamps.
func (f *Fleet) RebaseDrift() (lastW, maxW float64) {
	return f.lastRebaseDriftW, f.maxRebaseDriftW
}

// MaybeRebase counts one sample boundary and rebases every rebaseEvery-th
// call, amortizing the exact O(N) recompute over the sampling cadence.
// It must be called exactly once per sample round, from serial code —
// never from inside a shard fan-out, where it would count once per shard
// and mutate the running sums concurrently. Rebases lets tests pin the
// cadence.
func (f *Fleet) MaybeRebase() {
	f.rebaseTick++
	if f.rebaseTick >= rebaseEvery {
		f.rebaseTick = 0
		f.Rebase()
	}
}

// Rebases reports how many exact rebase recomputations have run over the
// fleet's lifetime (including the SetPowerGroups installation pass and
// explicit Rebase/Sync calls).
func (f *Fleet) Rebases() int { return f.rebases }

// VerifyAggregates cross-validates the maintained aggregates against a
// fresh full scan: the derived columns and counters must match exactly,
// floating-point running sums within the drift a rebase window can
// accumulate. A failure means a column write bypassed its sums (or drift
// escaped the rebase policy) and is reported loudly by the invariant
// checker.
func (f *Fleet) VerifyAggregates() error {
	const (
		relTol = 1e-7
		absTol = 1e-6
	)
	// Recorded rebase drift must stay within the tolerance one rebase
	// window can legitimately accumulate. Without this check, drift
	// beyond tolerance would be discarded at the very Rebase that could
	// have revealed it — and the non-negative clamps on the power
	// accessors would keep masking the symptom in between.
	if f.lastRebaseDriftW > relTol*f.lastRebaseRefW+absTol {
		return fmt.Errorf("core: rebase discarded %v W of drift (exact total %v W), beyond tolerance",
			f.lastRebaseDriftW, f.lastRebaseRefW)
	}
	return f.block.VerifyAggregates(relTol, absTol)
}

// Servers exposes the block's server handles in slot order, which is
// the activation order (shared slice: do not mutate).
func (f *Fleet) Servers() []*server.Server { return f.servers }

// ServerAt returns the server at slot i, Servers()[i].
func (f *Fleet) ServerAt(i int) *server.Server { return f.servers[i] }

// Size reports the total fleet size.
func (f *Fleet) Size() int { return len(f.servers) }

// OnCount reports servers that are active or booting (committed to be
// on). O(1): maintained where the state column is written.
func (f *Fleet) OnCount() int { return f.block.Sums().On }

// ActiveCount reports fully-booted servers. O(1): maintained where the
// state column is written.
func (f *Fleet) ActiveCount() int { return f.block.Sums().Active }

// Switches reports cumulative power-on and power-off transitions.
func (f *Fleet) Switches() (ons, offs int) { return f.switchOns, f.switchOffs }

// SetTarget powers servers on or off so that the committed count matches
// target (clamped to [0, Size]). Servers are activated in slot order and
// deactivated from the top, so a caller that places the servers it
// prefers in the low slots (e.g. CRAC-sensitive zones first, §5.1) gets
// cooling-aware activation for free. The block boots the lowest Off
// slots (server.Block.BootLowest), starting at the live bound when no
// Off slot lies below it, or sheds the highest committed ones
// (server.Block.ShedHighest); the servers one call switches share a
// deadline, and one engine event completes them all, syncing each as
// its own completion event would.
func (f *Fleet) SetTarget(target int) {
	if target < 0 {
		target = 0
	}
	if target > len(f.servers) {
		target = len(f.servers)
	}
	on := f.OnCount()
	if on < target {
		f.switchOns += f.block.BootLowest(f.engine, target-on)
		return
	}
	if on > target {
		// Shed booting servers as well as active ones: OnCount counts
		// both, so skipping Booting here would leave the committed count
		// above target until the boot completes — or forever, if the
		// target stays low (the server boots to Active with no further
		// SetTarget call to reconcile it). Slots from the live bound on
		// are Off.
		f.switchOffs += f.block.ShedHighest(f.engine, on-target)
	}
}

// shardsBefore returns the shards that start before slot end: the ones a
// loop over slots [0, end) runs, each clipped at end.
func (f *Fleet) shardsBefore(end int) []par.Range {
	k := 0
	for k < len(f.shards) && f.shards[k].Lo < end {
		k++
	}
	return f.shards[:k]
}

// Sync advances every server's energy accounting to now and rebases the
// running sums, so aggregate reads right after a Sync are exact. Like
// Dispatch, it runs only over the slots before the live bound and
// writes no Off server: an Off server draws nothing, so a sync would
// move only its LastSyncAt. The Rebase still scans every server.
func (f *Fleet) Sync(now time.Duration) {
	f.loopNow, f.loopEnd = now, f.block.LiveEnd()
	f.pool.RunRanges(f.shardsBefore(f.loopEnd), f.syncFn)
	f.mergeShards()
	f.Rebase()
}

// syncShard is Sync's body over one shard, clipped at the live bound.
func (f *Fleet) syncShard(sh int, r par.Range) {
	f.block.SyncSlots(&f.acc[sh].sums, f.loopNow, r.Lo, min(r.Hi, f.loopEnd))
}

// observeInlets is the trip scan (server.Block.ObserveInlets) at now with
// the per-zone inlets inletOf. Like Sync, it runs over the shards before
// the live bound and merges their partials in shard order.
func (f *Fleet) observeInlets(now time.Duration, inletOf []float64) {
	f.loopNow, f.loopEnd, f.inletOf = now, f.block.LiveEnd(), inletOf
	f.pool.RunRanges(f.shardsBefore(f.loopEnd), f.inletFn)
	f.mergeShards()
}

// inletShard is the trip scan's body over one shard, clipped at the bound.
func (f *Fleet) inletShard(sh int, r par.Range) {
	f.block.ObserveInlets(&f.acc[sh].sums, f.loopNow, r.Lo, min(r.Hi, f.loopEnd), f.inletOf)
}

// SetPStateAll moves every server to the given DVFS index.
func (f *Fleet) SetPStateAll(now time.Duration, idx int) error {
	if err := f.block.CheckPState(0, idx); err != nil {
		return err
	}
	f.loopNow, f.pstateIdx = now, idx
	f.pool.RunRanges(f.shards, f.pstateFn)
	f.mergeShards()
	return nil
}

// pstateShard is SetPStateAll's body over one shard.
func (f *Fleet) pstateShard(sh int, r par.Range) {
	f.block.SetPStates(&f.acc[sh].sums, f.loopNow, r.Lo, r.Hi, f.pstateIdx)
}

// Dispatch spreads offered load over the active servers and applies the
// resulting utilizations: every server with capacity gets one fill, every
// other server that is not Off gets 0, and Off servers are not written.
// It returns the load dropped for want of capacity and the highest
// per-server utilization, which is the fill whenever some server has
// capacity.
//
// Pass A folds per-shard partials of the capacity column; the spread is
// decided once from their shard-ordered total, and the power model is
// evaluated once for it (server.Block.PlanFill); pass B writes the fill
// into the utilization column shard by shard. Both run only over the
// slots before the live bound, where every server that is not Off sits;
// the slots past it would add nothing to either pass. Both produce bits
// that depend only on the shard partition, i.e. on fleet size.
func (f *Fleet) Dispatch(now time.Duration, offered float64) (dropped, maxU float64) {
	f.loopEnd = f.block.LiveEnd()
	shards := f.shardsBefore(f.loopEnd)
	f.pool.RunRanges(shards, f.capacityFn)
	var total float64
	for sh := range shards {
		total += f.acc[sh].capSum
		f.acc[sh].capSum = 0
	}
	plan := workload.PlanSpread(offered, total)
	f.loopNow = now
	f.block.PlanFill(&f.fill, plan.Fill)
	f.pool.RunRanges(shards, f.applyFn)
	f.mergeShards()
	if total > 0 && plan.Fill > 0 {
		maxU = plan.Fill
	}
	return plan.Dropped, maxU
}

// capacityShard is Dispatch's pass A over one shard, clipped at the live
// bound: the block sums the shard's positive available capacity from its
// column, in slot order.
func (f *Fleet) capacityShard(sh int, r par.Range) {
	f.acc[sh].capSum = f.block.SumCapacity(r.Lo, min(r.Hi, f.loopEnd))
}

// applyShard is Dispatch's pass B over one shard, clipped at the live
// bound: write the planned fill into the utilization columns, drawing
// from the power table Dispatch planned once for every shard.
func (f *Fleet) applyShard(sh int, r par.Range) {
	f.block.FillSlots(&f.acc[sh].sums, f.loopNow, r.Lo, min(r.Hi, f.loopEnd), &f.fill)
}

// PowerW reports the instantaneous total fleet draw. O(1): maintained
// where the power column is written, exactly rebased at sample
// boundaries, and clamped at zero like the per-group sums.
func (f *Fleet) PowerW() float64 { return max(0, f.block.Sums().PowerW) }

// EnergyJ reports the cumulative fleet energy through the last Sync.
// O(1): Sync rebases, so this is the exact per-server sum at that point.
func (f *Fleet) EnergyJ() float64 { return f.block.Sums().EnergyJ }

// Trips reports the total protective thermal shutdowns across the fleet.
// O(1): maintained where the trip column is written.
func (f *Fleet) Trips() int { return f.block.Sums().Trips }
