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
	"math"
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
// The fleet is the single Watcher of all its servers and maintains a
// struct-of-arrays power plane: per-slot instantaneous draw plus running
// totals (power, energy, trips, on/active counts) and optional per-rack /
// per-zone sums, updated in O(1) per server transition. Aggregate
// accessors are therefore O(1) reads instead of O(N) rescans, which is
// what lets the physics tick, telemetry sample, and control loops stay
// proportional to what changed rather than fleet size.
//
// Once TrackChanges is called, the fleet also records which slots
// notified since the last ResetChanged. The invariant checker reads that
// change set to check only the servers an event touched; a full sweep of
// every server once per Size() checked events, and on every report read,
// catches a mutation that skipped its notification.
type Fleet struct {
	servers []*server.Server
	engine  *sim.Engine
	// switchOns counts power-on transitions (oscillation diagnostic).
	switchOns  int
	switchOffs int

	// bySlot is the construction-order view of the fleet; Reorder permutes
	// only the activation order (servers), never slots, so slot-indexed
	// arrays stay valid across reorders.
	bySlot []*server.Server
	// powerW is the SoA power plane: instantaneous draw per slot, written
	// by ServerChanged on every power-affecting transition.
	powerW []float64
	// Running aggregates maintained from notification deltas.
	powerTotal  float64
	energyTotal float64
	onCount     int
	activeCount int
	tripsTotal  int
	// Optional grouping (installed by SetPowerGroups): slot→rack and
	// slot→zone with per-group running power sums. Physical placement is
	// slot-invariant, so these survive Reorder.
	rackOfSlot []int
	zoneOfSlot []int
	rackPower  []float64
	zonePower  []float64
	rebaseTick int
	// Recomputation scratch (same shape as rackPower/zonePower), sized
	// by SetPowerGroups: Rebase measures drift against the incremental
	// sums before overwriting them, and VerifyAggregates compares them
	// without allocating.
	rackScratch []float64
	zoneScratch []float64
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
	// Dispatch scratch, reused across calls (engine is single-threaded).
	capsBuf []float64
	utilBuf []float64

	// Sharded-fold machinery. shards partitions activation positions
	// [0, n) purely by size — never by worker count or pool presence — so
	// a run's float results are bit-identical whether its shards execute
	// on one goroutine or eight.
	// slotOfPos maps activation position → slot (identity until Reorder);
	// dispatchShard maps slot → the shard owning its activation position,
	// so notification deltas raised inside a dispatch phase land in that
	// shard's accumulator.
	shards        []par.Range
	slotOfPos     []int32
	dispatchShard []int32
	// routeShard is non-nil only inside a shard phase (beginShardPhase /
	// endShardPhase); while set, ServerChanged folds deltas into
	// acc[routeShard[slot]] instead of the shared running sums, which is
	// what makes concurrent per-shard server mutation race-free.
	routeShard []int32
	// acc is one padded accumulator per shard; accRack/accZone are the
	// matching per-shard rack/zone power-delta slabs (allocated with
	// SetPowerGroups). All routed fields are zero outside phases —
	// endShardPhase merges them into the running sums in shard order and
	// re-zeroes, and VerifyAggregates asserts the invariant.
	acc     []shardAcc
	accRack [][]float64
	accZone [][]float64
	// pool executes shard fan-outs; nil runs them inline (workers=1).
	pool *par.Pool
	// rebases counts exact Rebase recomputations, so tests can pin the
	// once-per-sample-round scheduling under parallel sampling.
	rebases int
	// Change set, nil until TrackChanges: changed flags each slot that
	// notified since the last ResetChanged, and changes lists those slots
	// once each, in notification order. Inside a shard phase each shard
	// appends to its accumulator's list instead, and endShardPhase merges
	// the lists in shard order.
	changed []bool
	changes []int32
	// Dispatch's shard bodies, bound once in NewFleet so a fan-out
	// allocates no closure, and the per-call inputs they read.
	capacityFn func(int, par.Range)
	applyFn    func(int, par.Range)
	applyNow   time.Duration
	applyFill  float64
}

// shardAcc collects one shard's aggregate deltas during a parallel phase.
// Padded to two cache lines so adjacent shards' accumulators never share
// a line (they are written concurrently by different workers).
type shardAcc struct {
	power, energy float64
	capSum, maxU  float64
	on, active    int64
	trips         int64
	changes       []int32
	groupDirty    bool
	_             [47]byte
}

// NewFleet builds a fleet of n servers from cfg, all initially off.
// Names are suffixed with the index.
func NewFleet(e *sim.Engine, cfg server.Config, n int) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: fleet size %d must be positive", n)
	}
	f := &Fleet{
		engine:  e,
		servers: make([]*server.Server, 0, n),
		powerW:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		c := cfg
		c.Name = fmt.Sprintf("%s-%03d", cfg.Name, i)
		s, err := server.New(c)
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, s)
		s.Watch(i, f)
	}
	f.bySlot = append([]*server.Server(nil), f.servers...)
	f.capsBuf = par.AlignedFloats(n)
	f.utilBuf = par.AlignedFloats(n)
	f.shards = par.Shards(n)
	f.slotOfPos = make([]int32, n)
	for i := range f.slotOfPos {
		f.slotOfPos[i] = int32(i)
	}
	f.dispatchShard = make([]int32, n)
	f.acc = make([]shardAcc, len(f.shards))
	f.rebuildDispatchShards()
	f.capacityFn = f.capacityShard
	f.applyFn = f.applyShard
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

// rebuildDispatchShards refreshes the slot → dispatch-shard map from the
// current activation order. Called whenever slotOfPos changes (NewFleet,
// Reorder).
func (f *Fleet) rebuildDispatchShards() {
	for sh, r := range f.shards {
		for i := r.Lo; i < r.Hi; i++ {
			f.dispatchShard[f.slotOfPos[i]] = int32(sh)
		}
	}
}

// ServerChanged implements server.Watcher: it folds one server's
// transition delta into the SoA plane and the running aggregates. Inside
// a shard phase the delta is routed to the owning shard's accumulator
// instead, so concurrent shards never touch the shared sums.
func (f *Fleet) ServerChanged(slot int, c server.Change) {
	if f.routeShard != nil {
		f.serverChangedRouted(slot, c)
		return
	}
	if f.changed != nil {
		f.changes = f.markChanged(f.changes, slot)
	}
	f.powerW[slot] = c.NewPowerW
	d := c.NewPowerW - c.OldPowerW
	f.powerTotal += d
	f.energyTotal += c.EnergyDeltaJ
	f.tripsTotal += c.TripDelta
	if c.NewState != c.OldState {
		if c.OldState == server.StateActive || c.OldState == server.StateBooting {
			f.onCount--
		}
		if c.NewState == server.StateActive || c.NewState == server.StateBooting {
			f.onCount++
		}
		if c.OldState == server.StateActive {
			f.activeCount--
		}
		if c.NewState == server.StateActive {
			f.activeCount++
		}
	}
	if f.rackOfSlot != nil && d != 0 {
		f.rackPower[f.rackOfSlot[slot]] += d
		f.zonePower[f.zoneOfSlot[slot]] += d
	}
}

// serverChangedRouted is the shard-phase variant of ServerChanged: the
// per-slot plane write stays (each slot is owned by exactly one shard),
// every scalar delta goes into the shard's private accumulator, and the
// rack/zone deltas into its private slabs. Merging back happens once, in
// shard order, at endShardPhase.
func (f *Fleet) serverChangedRouted(slot int, c server.Change) {
	f.powerW[slot] = c.NewPowerW
	sh := f.routeShard[slot]
	a := &f.acc[sh]
	if f.changed != nil {
		a.changes = f.markChanged(a.changes, slot)
	}
	d := c.NewPowerW - c.OldPowerW
	a.power += d
	a.energy += c.EnergyDeltaJ
	a.trips += int64(c.TripDelta)
	if c.NewState != c.OldState {
		if c.OldState == server.StateActive || c.OldState == server.StateBooting {
			a.on--
		}
		if c.NewState == server.StateActive || c.NewState == server.StateBooting {
			a.on++
		}
		if c.OldState == server.StateActive {
			a.active--
		}
		if c.NewState == server.StateActive {
			a.active++
		}
	}
	if f.rackOfSlot != nil && d != 0 {
		f.accRack[sh][f.rackOfSlot[slot]] += d
		f.accZone[sh][f.zoneOfSlot[slot]] += d
		a.groupDirty = true
	}
}

// markChanged flags slot and appends it to list, unless the slot is
// already flagged since the last ResetChanged. Inside a shard phase each
// slot is owned by one shard, so concurrent shards write disjoint flags.
func (f *Fleet) markChanged(list []int32, slot int) []int32 {
	if f.changed[slot] {
		return list
	}
	f.changed[slot] = true
	return append(list, int32(slot))
}

// TrackChanges turns on change tracking: from the call on, every slot
// that notifies joins the change set (see Changed) until ResetChanged.
// Until it is called, notifications pay one nil check for tracking.
func (f *Fleet) TrackChanges() {
	if f.changed == nil {
		f.changed = make([]bool, len(f.bySlot))
	}
}

// Changed returns the slots that notified since the last ResetChanged,
// each once (shared slice, valid until ResetChanged). It is always empty
// on a fleet that does not track changes.
func (f *Fleet) Changed() []int32 { return f.changes }

// ResetChanged empties the change set.
func (f *Fleet) ResetChanged() {
	for _, slot := range f.changes {
		f.changed[slot] = false
	}
	f.changes = f.changes[:0]
}

// beginShardPhase arms delta routing for a parallel phase: route maps
// slot → accumulator shard for every slot that may notify during the
// phase. The caller must end the phase (endShardPhase) on the same
// goroutine before any aggregate read or serial mutation.
func (f *Fleet) beginShardPhase(route []int32) {
	if f.routeShard != nil {
		panic("core: nested shard phase")
	}
	f.routeShard = route
}

// endShardPhase disarms routing and merges every shard's accumulated
// deltas into the running sums in ascending shard order — the fixed
// reduction order that keeps the float results independent of which
// worker executed which shard. Accumulators are re-zeroed, restoring the
// all-zero-outside-phases invariant.
func (f *Fleet) endShardPhase() {
	f.routeShard = nil
	for sh := range f.acc {
		a := &f.acc[sh]
		f.powerTotal += a.power
		f.energyTotal += a.energy
		f.onCount += int(a.on)
		f.activeCount += int(a.active)
		f.tripsTotal += int(a.trips)
		a.power, a.energy = 0, 0
		a.on, a.active, a.trips = 0, 0, 0
		f.changes = append(f.changes, a.changes...)
		a.changes = a.changes[:0]
		if a.groupDirty {
			ar, az := f.accRack[sh], f.accZone[sh]
			for r, d := range ar {
				if d != 0 {
					f.rackPower[r] += d
					ar[r] = 0
				}
			}
			for z, d := range az {
				if d != 0 {
					f.zonePower[z] += d
					az[z] = 0
				}
			}
			a.groupDirty = false
		}
	}
}

// SetPowerGroups installs slot→rack and slot→zone maps and starts
// maintaining per-group power sums. Call it before any Reorder, while
// slot order and activation order still coincide; the maps are copied and
// keyed by slot, so they remain correct afterwards (a server's physical
// rack and zone never change).
func (f *Fleet) SetPowerGroups(rackOf, zoneOf []int, nRacks, nZones int) error {
	if len(rackOf) != len(f.bySlot) || len(zoneOf) != len(f.bySlot) {
		return fmt.Errorf("core: power groups sized %d/%d for fleet of %d",
			len(rackOf), len(zoneOf), len(f.bySlot))
	}
	for i := range rackOf {
		if rackOf[i] < 0 || rackOf[i] >= nRacks {
			return fmt.Errorf("core: slot %d mapped to invalid rack %d", i, rackOf[i])
		}
		if zoneOf[i] < 0 || zoneOf[i] >= nZones {
			return fmt.Errorf("core: slot %d mapped to invalid zone %d", i, zoneOf[i])
		}
	}
	f.rackOfSlot = append([]int(nil), rackOf...)
	f.zoneOfSlot = append([]int(nil), zoneOf...)
	f.rackPower = make([]float64, nRacks)
	f.zonePower = make([]float64, nZones)
	f.rackScratch = make([]float64, nRacks)
	f.zoneScratch = make([]float64, nZones)
	f.accRack = make([][]float64, len(f.shards))
	f.accZone = make([][]float64, len(f.shards))
	for sh := range f.accRack {
		// Separately allocated aligned slabs: no two shards' group deltas
		// ever share a cache line.
		f.accRack[sh] = par.AlignedFloats(nRacks)
		f.accZone[sh] = par.AlignedFloats(nZones)
	}
	// Populate the just-installed (zeroed) group sums without measuring
	// drift: they have no incremental history yet, so the gap to the
	// exact sums is installation, not drift.
	f.rebase(false)
	return nil
}

// RackPowerW reports the instantaneous draw of physical rack r
// (requires SetPowerGroups). Clamped at zero: incremental maintenance
// can leave an all-off group a few ulps below it.
func (f *Fleet) RackPowerW(r int) float64 { return clampNonNeg(f.rackPower[r]) }

// ZonePowerW reports the instantaneous draw dissipating into cooling
// zone z (requires SetPowerGroups). Clamped at zero like RackPowerW.
func (f *Fleet) ZonePowerW(z int) float64 { return clampNonNeg(f.zonePower[z]) }

// clampNonNeg floors a maintained power sum at zero. Power is
// physically non-negative; drift between rebases can undershoot by ulps.
func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Rebase recomputes the floating-point running sums (total, per-rack and
// per-zone power, total energy) exactly from the per-slot plane,
// discarding accumulated incremental rounding drift. Counters (on,
// active, trips) are deliberately left incremental so a missed
// notification stays detectable by VerifyAggregates. The magnitude of
// the discarded power drift is recorded (see RebaseDrift) rather than
// silently absorbed.
func (f *Fleet) Rebase() { f.rebase(true) }

// rebase is Rebase with drift measurement optional: SetPowerGroups
// skips it for the very first recompute over freshly zeroed group sums.
func (f *Fleet) rebase(measure bool) {
	if f.routeShard != nil {
		panic("core: rebase during a shard phase")
	}
	f.rebases++
	var pw, en float64
	clear(f.rackScratch)
	clear(f.zoneScratch)
	for i, s := range f.bySlot {
		p := f.powerW[i]
		pw += p
		en += s.EnergyJ()
		if f.rackOfSlot != nil {
			f.rackScratch[f.rackOfSlot[i]] += p
			f.zoneScratch[f.zoneOfSlot[i]] += p
		}
	}
	if measure {
		drift := math.Abs(f.powerTotal - pw)
		for r := range f.rackScratch {
			drift = math.Max(drift, math.Abs(f.rackPower[r]-f.rackScratch[r]))
		}
		for z := range f.zoneScratch {
			drift = math.Max(drift, math.Abs(f.zonePower[z]-f.zoneScratch[z]))
		}
		f.lastRebaseDriftW = drift
		f.lastRebaseRefW = math.Abs(pw)
		if drift > f.maxRebaseDriftW {
			f.maxRebaseDriftW = drift
		}
	}
	copy(f.rackPower, f.rackScratch)
	copy(f.zonePower, f.zoneScratch)
	f.powerTotal = pw
	f.energyTotal = en
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
// and mutate the running sums concurrently. The rebase guard enforces
// the phase half of that contract; Rebases lets tests pin the cadence.
func (f *Fleet) MaybeRebase() {
	if f.routeShard != nil {
		panic("core: MaybeRebase during a shard phase")
	}
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
// fresh full scan: counters and the per-slot plane must match exactly,
// floating-point running sums within the drift a rebase window can
// accumulate. A failure means a mutation path skipped its notification
// (or drift escaped the rebase policy) and is reported loudly by the
// invariant checker.
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
	on, active, trips := 0, 0, 0
	var pw, en float64
	for i, s := range f.bySlot {
		switch s.State() {
		case server.StateActive:
			on++
			active++
		case server.StateBooting:
			on++
		}
		trips += s.Trips()
		p := s.Power()
		if p != f.powerW[i] {
			return fmt.Errorf("core: slot %d power plane %v != server power %v", i, f.powerW[i], p)
		}
		pw += p
		en += s.EnergyJ()
	}
	if on != f.onCount {
		return fmt.Errorf("core: maintained on count %d != scan %d", f.onCount, on)
	}
	if active != f.activeCount {
		return fmt.Errorf("core: maintained active count %d != scan %d", f.activeCount, active)
	}
	if trips != f.tripsTotal {
		return fmt.Errorf("core: maintained trips %d != scan %d", f.tripsTotal, trips)
	}
	if !withinTol(f.powerTotal, pw, relTol, absTol) {
		return fmt.Errorf("core: maintained power %v W != scan %v W", f.powerTotal, pw)
	}
	if !withinTol(f.energyTotal, en, relTol, absTol) {
		return fmt.Errorf("core: maintained energy %v J != scan %v J", f.energyTotal, en)
	}
	if f.rackOfSlot != nil {
		rp, zp := f.rackScratch, f.zoneScratch
		clear(rp)
		clear(zp)
		for i := range f.bySlot {
			rp[f.rackOfSlot[i]] += f.powerW[i]
			zp[f.zoneOfSlot[i]] += f.powerW[i]
		}
		for r := range rp {
			if !withinTol(f.rackPower[r], rp[r], relTol, absTol) {
				return fmt.Errorf("core: maintained rack %d power %v W != scan %v W", r, f.rackPower[r], rp[r])
			}
		}
		for z := range zp {
			if !withinTol(f.zonePower[z], zp[z], relTol, absTol) {
				return fmt.Errorf("core: maintained zone %d power %v W != scan %v W", z, f.zonePower[z], zp[z])
			}
		}
	}
	return f.verifyShardedFold(relTol, absTol)
}

// verifyShardedFold cross-checks the maintained sums against the sharded
// reduction — a per-shard partial fold over the power plane merged in
// shard order, exactly the grouping parallel phases produce — and
// asserts the phase invariants: no phase in flight, every accumulator
// zeroed, and the shard partition still tiling the fleet.
func (f *Fleet) verifyShardedFold(relTol, absTol float64) error {
	if f.routeShard != nil {
		return fmt.Errorf("core: aggregate verification during a shard phase")
	}
	for sh := range f.acc {
		a := &f.acc[sh]
		if a.power != 0 || a.energy != 0 || a.on != 0 || a.active != 0 || a.trips != 0 || len(a.changes) != 0 || a.groupDirty {
			return fmt.Errorf("core: shard %d accumulator not zero outside a phase (%+v)", sh, *a)
		}
	}
	lo := 0
	var pw float64
	for _, r := range f.shards {
		if r.Lo != lo || r.Hi <= r.Lo {
			return fmt.Errorf("core: shard partition does not tile the fleet at %d", r.Lo)
		}
		lo = r.Hi
		var part float64
		for i := r.Lo; i < r.Hi; i++ {
			part += f.powerW[f.slotOfPos[i]]
		}
		pw += part
	}
	if lo != len(f.servers) {
		return fmt.Errorf("core: shard partition covers %d of %d servers", lo, len(f.servers))
	}
	if !withinTol(f.powerTotal, pw, relTol, absTol) {
		return fmt.Errorf("core: maintained power %v W != sharded fold %v W", f.powerTotal, pw)
	}
	return nil
}

// withinTol reports |a-b| <= relTol*max(|a|,|b|) + absTol.
func withinTol(a, b, relTol, absTol float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))+absTol
}

// Servers exposes the underlying servers (shared slice: do not mutate).
func (f *Fleet) Servers() []*server.Server { return f.servers }

// ServerAt returns the server registered under slot, its construction
// index. Slots never move under Reorder.
func (f *Fleet) ServerAt(slot int) *server.Server { return f.bySlot[slot] }

// Size reports the total fleet size.
func (f *Fleet) Size() int { return len(f.servers) }

// OnCount reports servers that are active or booting (committed to be
// on). O(1): maintained from server notifications.
func (f *Fleet) OnCount() int { return f.onCount }

// ActiveCount reports fully-booted servers. O(1): maintained from server
// notifications.
func (f *Fleet) ActiveCount() int { return f.activeCount }

// Switches reports cumulative power-on and power-off transitions.
func (f *Fleet) Switches() (ons, offs int) { return f.switchOns, f.switchOffs }

// SetTarget powers servers on or off so that the committed count matches
// target (clamped to [0, Size]). Servers are activated in slice order and
// deactivated from the tail, so a caller that orders servers by
// preference (e.g. CRAC-sensitive zones first, §5.1) gets cooling-aware
// activation for free.
func (f *Fleet) SetTarget(target int) {
	if target < 0 {
		target = 0
	}
	if target > len(f.servers) {
		target = len(f.servers)
	}
	on := f.OnCount()
	if on < target {
		for _, s := range f.servers {
			if on == target {
				break
			}
			if s.State() == server.StateOff {
				s.PowerOn(f.engine)
				f.switchOns++
				on++
			}
		}
		return
	}
	if on > target {
		// Shed booting servers as well as active ones: OnCount counts
		// both, so skipping Booting here would leave the committed count
		// above target until the boot completes — or forever, if the
		// target stays low (the server boots to Active with no further
		// SetTarget call to reconcile it).
		for i := len(f.servers) - 1; i >= 0 && on > target; i-- {
			s := f.servers[i]
			if st := s.State(); st == server.StateActive || st == server.StateBooting {
				s.PowerOff(f.engine)
				f.switchOffs++
				on--
			}
		}
	}
}

// Reorder permutes the fleet's activation order: perm[i] is the index of
// the server that should occupy position i. SetTarget activates from the
// front and deactivates from the back, so callers encode activation
// preference (e.g. CRAC-sensitive zones first) by reordering.
func (f *Fleet) Reorder(perm []int) error {
	if len(perm) != len(f.servers) {
		return fmt.Errorf("core: permutation length %d != fleet size %d", len(perm), len(f.servers))
	}
	seen := make([]bool, len(perm))
	next := make([]*server.Server, len(perm))
	for i, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return fmt.Errorf("core: invalid permutation entry %d at %d", p, i)
		}
		seen[p] = true
		next[i] = f.servers[p]
	}
	f.servers = next
	nextSlot := make([]int32, len(perm))
	for i, p := range perm {
		nextSlot[i] = f.slotOfPos[p]
	}
	f.slotOfPos = nextSlot
	f.rebuildDispatchShards()
	return nil
}

// Sync advances every server's energy accounting to now and rebases the
// running sums, so aggregate reads right after a Sync are exact.
func (f *Fleet) Sync(now time.Duration) {
	for _, s := range f.servers {
		s.Sync(now)
	}
	f.Rebase()
}

// SetPStateAll moves every server to the given DVFS index.
func (f *Fleet) SetPStateAll(now time.Duration, idx int) error {
	for _, s := range f.servers {
		if err := s.SetPState(now, idx); err != nil {
			return err
		}
	}
	return nil
}

// Dispatch spreads offered load over the active servers and applies the
// resulting utilizations. It returns the dispatch (including dropped
// load) and the highest per-server utilization. The returned dispatch's
// Utilizations slice is fleet-owned scratch, valid only until the next
// Dispatch call; copy it to retain.
//
// Phase A reads every server's available capacity into shard-partitioned
// scratch and folds per-shard capacity partials (pure reads, no routing
// needed); the spread decision is taken once from the shard-ordered
// total; phase B applies the identical fill to every shard while
// notification deltas route to per-shard accumulators. Both phases
// produce bits that depend only on the shard partition — i.e. on fleet
// size — so any worker count yields the same dispatch, the same power
// plane, and the same energy.
func (f *Fleet) Dispatch(now time.Duration, offered float64) (workload.Dispatch, float64) {
	f.pool.RunRanges(f.shards, f.capacityFn)
	var total float64
	for sh := range f.acc {
		total += f.acc[sh].capSum
		f.acc[sh].capSum = 0
	}
	plan := workload.PlanSpread(offered, total)
	f.applyNow, f.applyFill = now, plan.Fill
	f.beginShardPhase(f.dispatchShard)
	f.pool.RunRanges(f.shards, f.applyFn)
	f.endShardPhase()
	var maxU float64
	for sh := range f.acc {
		if f.acc[sh].maxU > maxU {
			maxU = f.acc[sh].maxU
		}
		f.acc[sh].maxU = 0
	}
	return workload.Dispatch{Utilizations: f.utilBuf, Dropped: plan.Dropped}, maxU
}

// capacityShard is Dispatch's phase A over one shard: read each server's
// available capacity into scratch and fold the shard's positive total.
func (f *Fleet) capacityShard(sh int, r par.Range) {
	var sum float64
	for i := r.Lo; i < r.Hi; i++ {
		c := f.servers[i].AvailableCapacity()
		f.capsBuf[i] = c
		if c > 0 {
			sum += c
		}
	}
	f.acc[sh].capSum = sum
}

// applyShard is Dispatch's phase B over one shard: give every server with
// capacity the planned fill and record the shard's highest utilization.
func (f *Fleet) applyShard(sh int, r par.Range) {
	var maxU float64
	for i := r.Lo; i < r.Hi; i++ {
		var u float64
		if f.capsBuf[i] > 0 {
			u = f.applyFill
		}
		f.utilBuf[i] = u
		f.servers[i].SetUtilization(f.applyNow, u)
		if u > maxU {
			maxU = u
		}
	}
	f.acc[sh].maxU = maxU
}

// PowerW reports the instantaneous total fleet draw. O(1): maintained
// from server notifications, exactly rebased at sample boundaries, and
// clamped at zero like the per-group sums.
func (f *Fleet) PowerW() float64 { return clampNonNeg(f.powerTotal) }

// EnergyJ reports the cumulative fleet energy through the last Sync.
// O(1): Sync rebases, so this is the exact per-server sum at that point.
func (f *Fleet) EnergyJ() float64 { return f.energyTotal }

// Trips reports the total protective thermal shutdowns across the fleet.
// O(1): maintained from server notifications.
func (f *Fleet) Trips() int { return f.tripsTotal }
