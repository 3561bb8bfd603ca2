package server

import (
	"fmt"
	"math"
	"time"

	"repro/internal/par"
	"repro/internal/sim"
)

// Block holds the mutable state of servers built from one Config as
// slot-indexed columns, the constants derived from that Config, and the
// aggregates over its slots. A *Server is a handle on one slot. Every
// handle write goes through writeSlot, which folds the write's deltas
// into a Sums in the same place — the block's own for a handle call, a
// shard's partial in a fleet loop — so columns and sums never disagree.
//
// A fleet's per-tick loops are kernels of their own over a slot range
// [lo, hi): the capacity sum (SumCapacity), the dispatch write
// (FillSlots), the sync (SyncSlots) and the trip scan (ObserveInlets).
// Each reads its columns through locals resliced to the range once, so a
// slot costs no range check. The dispatch write and the sync keep their
// float sums in locals, write an Active slot in the loop and send a
// Booting or ShuttingDown slot, whose transition may fall due, through
// writeSlot; they fold the same deltas in the same order as a writeSlot
// per slot, through the same foldChange, so the bits are the per-slot
// write's. A loop over the slots that are not Off may stop at the
// block's live bound (LiveEnd), which PowerOn raises.
type Block struct {
	cfg Config
	// suffix names slot k "<cfg.Name>-<k>"; a standalone server from New
	// keeps cfg.Name.
	suffix bool

	// Constants derived from cfg: idle draw before parking, the dynamic
	// span above it, and the core count as the parking fraction's divisor.
	idleW, dynW float64
	cores       float64

	// The columns. due is the pending boot's or shutdown's deadline.
	// idle, avail and power are derived: idle draw after parking,
	// available capacity and instantaneous draw, recomputed only when
	// state, P-state, throttle or parked cores (and, for power,
	// utilization) change.
	state                                 []State
	pstate, parked, trips, boots, crashes []int32
	util, throttle, energy, inlet         []float64
	idle, avail, power                    []float64
	lastAt, due                           []time.Duration
	handles                               []Server
	// one backs a one-slot block's columns, so that a standalone server
	// is one allocation.
	one struct {
		state  [1]State
		ints   [5]int32
		floats [7]float64
		times  [2]time.Duration
		handle [1]Server
	}

	sums Sums
	// Optional grouping (SetGroups): slot → rack and zone, with the
	// recompute scratch Rebase and VerifyAggregates share.
	rackOf, zoneOf []int32
	rackScratch    []float64
	zoneScratch    []float64
	// changed flags each slot that changed since the last ResetChanged;
	// nil until TrackChanges.
	changed []bool
	live    int // every slot from live on is Off (see LiveEnd)
}

// Sums are the aggregates over a block's slots, maintained where the
// columns are written. The block keeps one Sums for itself; a sharded
// loop gives each shard a partial (see Partial) and merges the partials
// into the block's in shard order (Merge), so the float grouping depends
// only on the shard partition.
type Sums struct {
	// PowerW and EnergyJ are the total draw and energy.
	PowerW, EnergyJ float64
	// On counts active and booting slots, Active the active ones, Trips
	// the protective thermal shutdowns, Boots the boots started.
	On, Active, Trips, Boots int
	// Rack and Zone are the per-group power sums (nil without groups).
	Rack, Zone []float64
	changes    []int32
	groupDirty bool
}

// NewBlock builds n servers from cfg, all Off. Slot k is named
// "<cfg.Name>-<k>", formatted when asked for. The columns are cut from
// one backing array per element type.
func NewBlock(cfg Config, n int) (*Block, error) {
	if n <= 0 {
		return nil, fmt.Errorf("server: block size %d must be positive", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Block{
		cfg:    cfg,
		suffix: true,
		idleW:  cfg.PeakPower * cfg.IdleFraction,
		dynW:   cfg.PeakPower - cfg.PeakPower*cfg.IdleFraction,
		cores:  float64(cfg.Cores),
	}
	b.state, b.handles = b.one.state[:], b.one.handle[:]
	ints, floats, times := b.one.ints[:], b.one.floats[:], b.one.times[:]
	if n > 1 {
		b.state, b.handles = make([]State, n), make([]Server, n)
		ints, floats, times = make([]int32, 5*n), make([]float64, 7*n), make([]time.Duration, 2*n)
	}
	b.pstate, b.parked, b.trips, b.boots, b.crashes =
		ints[:n:n], ints[n:2*n:2*n], ints[2*n:3*n:3*n], ints[3*n:4*n:4*n], ints[4*n:]
	b.util, b.throttle, b.energy, b.inlet = floats[:n:n], floats[n:2*n:2*n], floats[2*n:3*n:3*n], floats[3*n:4*n:4*n]
	b.idle, b.avail, b.power = floats[4*n:5*n:5*n], floats[5*n:6*n:6*n], floats[6*n:]
	b.lastAt, b.due = times[:n:n], times[n:]
	idle := b.idleOf(0)
	for i := range b.state {
		b.state[i] = StateOff
		b.throttle[i] = 1
		b.inlet[i] = 20
		b.idle[i] = idle
		b.handles[i].b, b.handles[i].i = b, i
	}
	return b, nil
}

// Servers returns a new slice of the handles on every slot, in slot order.
func (b *Block) Servers() []*Server {
	out := make([]*Server, len(b.handles))
	for i := range out {
		out[i] = &b.handles[i]
	}
	return out
}

// name formats slot's name.
func (b *Block) name(slot int) string {
	if !b.suffix {
		return b.cfg.Name
	}
	return fmt.Sprintf("%s-%03d", b.cfg.Name, slot)
}

// StateAt reports slot's lifecycle state.
func (b *Block) StateAt(slot int) State { return b.state[slot] }

// PowerAt reports slot's instantaneous draw.
func (b *Block) PowerAt(slot int) float64 { return b.power[slot] }

// UtilizationAt reports slot's utilization.
func (b *Block) UtilizationAt(slot int) float64 { return b.util[slot] }

// Sums returns the block's own aggregates.
func (b *Block) Sums() *Sums { return &b.sums }

// idleOf is the idle draw of a powered-on server with parked cores.
func (b *Block) idleOf(parked int32) float64 {
	return b.idleW * (1 - b.cfg.ParkSavings*(float64(parked)/b.cores))
}

// drawOf is the power model: the wall draw of a server in state st with
// idle draw idle (after parking), dynamic fraction df (the power curve at
// its utilization), DVFS index ps and throttle duty. An active server's
// draw is evaluated in two halves, dynK and activeDraw, so that a
// dispatch can evaluate the first once per P-state (see Fill).
func (b *Block) drawOf(st State, idle, df float64, ps int32, throttle float64) float64 {
	switch st {
	case StateActive:
		return activeDraw(idle, b.dynK(df, ps), throttle)
	case StateBooting, StateShuttingDown:
		// Transitioning machines draw near-idle power but do no work.
		return idle
	}
	return 0
}

// dynK is the first half of an active server's draw: the dynamic span at
// power-curve fraction df, scaled by P-state ps's dynamic factor.
func (b *Block) dynK(df float64, ps int32) float64 {
	return b.dynW * df * b.cfg.PStates[ps].DynFactor
}

// activeDraw is the second half: idle draw plus the dynamic draw k at
// throttle duty.
func activeDraw(idle, k, throttle float64) float64 { return idle + k*throttle }

// capacityOf is the work per second a server can absorb: zero unless
// active, scaled by DVFS frequency, throttling and unparked cores.
func (b *Block) capacityOf(st State, ps, parked int32, throttle float64) float64 {
	if st != StateActive {
		return 0
	}
	coreFrac := 1 - float64(parked)/b.cores
	return b.cfg.Capacity * b.cfg.PStates[ps].Freq * throttle * coreFrac
}

// settled is st after completing a boot or shutdown of slot whose
// deadline has passed by now.
func (b *Block) settled(st State, slot int, now time.Duration) State {
	switch {
	case st == StateBooting && now >= b.due[slot]:
		return StateActive
	case st == StateShuttingDown && now >= b.due[slot]:
		return StateOff
	}
	return st
}

// clampUtil gives the bits of math.Max(0, math.Min(1, u)) for every
// input but NaN, which counts as 0.
func clampUtil(u float64) float64 {
	if !(u > 0) {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// op names a column write (see writeSlot).
type op uint8

const (
	opSync     op = iota // integrate and complete due transitions only
	opUtil               // utilization x
	opPState             // DVFS index n
	opThrottle           // throttle duty x
	opPark               // parked cores n
	opInlet              // inlet temperature x, with the protective trip
	opOn                 // boot an Off server
	opOff                // shut down an active or booting server
	opCrash              // drop an active or booting server to Off
)

// writeArgs are a write's operands, shared by every slot of a loop.
// Callers have validated them.
type writeArgs struct {
	op op
	x  float64
	n  int
}

// writeSlot is the one path by which a server's columns change: it
// integrates slot's energy over the dt seconds up to now, completes a
// boot or shutdown whose deadline has passed, applies the op, refreshes
// the derived columns and, if state, power or energy moved, folds the
// deltas into p and marks the slot changed. It reports whether the op
// took: a boot, a shutdown, a crash or a trip of the slot.
func (b *Block) writeSlot(p *Sums, slot int, now time.Duration, dt float64, w *writeArgs) bool {
	st0, p0, e0 := b.state[slot], b.power[slot], b.energy[slot]
	e := e0 + p0*dt
	b.lastAt[slot] = now
	st := b.settled(st0, slot, now)
	refresh, took := false, false
	switch w.op {
	case opUtil:
		b.util[slot] = clampUtil(w.x)
	case opPState:
		b.pstate[slot] = int32(w.n)
		refresh = true
	case opThrottle:
		b.throttle[slot] = w.x
		refresh = true
	case opPark:
		b.parked[slot] = int32(w.n)
		b.idle[slot] = b.idleOf(int32(w.n))
		refresh = true
	case opInlet:
		b.inlet[slot] = w.x
		if took = w.x > b.cfg.TripTempC && committed(st) == 1; took {
			st = StateOff
			b.trips[slot]++
		}
	case opOn:
		if took = st == StateOff; took {
			st = StateBooting
			b.boots[slot]++
			e += b.cfg.BootEnergy
			b.due[slot] = now + b.cfg.BootDelay
		}
	case opOff:
		if took = committed(st) == 1; took {
			st = StateShuttingDown
			b.due[slot] = now + b.cfg.ShutdownDelay
		}
	case opCrash:
		if took = committed(st) == 1; took {
			st = StateOff
			b.crashes[slot]++
		}
	}
	if st != StateActive {
		b.util[slot] = 0 // only an active server carries load
	}
	b.energy[slot] = e
	b.state[slot] = st
	refresh = refresh || st != st0
	if refresh {
		b.avail[slot] = b.capacityOf(st, b.pstate[slot], b.parked[slot], b.throttle[slot])
	}
	pw := p0
	if refresh || w.op == opUtil {
		pw = b.drawOf(st, b.idle[slot], b.cfg.dynFraction(b.util[slot]), b.pstate[slot], b.throttle[slot])
		b.power[slot] = pw
	}
	if st == st0 && pw == p0 && e == e0 {
		return took // a trip always changes state
	}
	d := pw - p0
	p.PowerW += d
	p.EnergyJ += e - e0
	if took {
		switch w.op {
		case opInlet:
			p.Trips++
		case opOn:
			p.Boots++
		}
	}
	if st != st0 {
		p.On += committed(st) - committed(st0)
		p.Active += activeIn(st) - activeIn(st0)
	}
	b.foldChange(p, int32(slot), d)
	return took
}

// foldChange folds a changed slot into p: the slot into p's change set,
// if the block tracks changes, and its power delta d into p's group
// sums, if the block has groups and d is not zero.
func (b *Block) foldChange(p *Sums, slot int32, d float64) {
	if b.changed != nil && !b.changed[slot] {
		b.changed[slot] = true
		p.changes = append(p.changes, slot)
	}
	if b.rackOf != nil && d != 0 {
		p.Rack[b.rackOf[slot]] += d
		p.Zone[b.zoneOf[slot]] += d
		p.groupDirty = true
	}
}

// committed and activeIn count a state into the on and active counts.
func committed(st State) int {
	if st == StateActive || st == StateBooting {
		return 1
	}
	return 0
}

func activeIn(st State) int {
	if st == StateActive {
		return 1
	}
	return 0
}

// since checks that slot's clock does not run backwards and returns the
// seconds from its last write to now.
func (b *Block) since(slot int, now time.Duration) float64 {
	if now < b.lastAt[slot] {
		panic(fmt.Sprintf("server %s: time moved backwards %v -> %v", b.name(slot), b.lastAt[slot], now))
	}
	return (now - b.lastAt[slot]).Seconds()
}

// writeOne is the write of one handle call: one slot, into the block's
// own sums.
func (b *Block) writeOne(slot int, now time.Duration, w writeArgs) bool {
	return b.writeSlot(&b.sums, slot, now, b.since(slot, now), &w)
}

// A Fill is one dispatch's power model for a block, planned by PlanFill
// before the dispatch's FillSlots calls, one per shard's slot range: the
// clamped fill and, for each P-state, the first half of an active
// server's draw (dynK) at the fill and at 0, interleaved. FillSlots only
// reads it, so the shards of one dispatch share it.
type Fill struct {
	u float64
	k []float64
}

// PlanFill aims f at a dispatch of fill. It evaluates the power curve
// once and dynK twice per P-state, and reuses f's table, so only a Fill's
// first plan allocates.
func (b *Block) PlanFill(f *Fill, fill float64) {
	if n := 2 * len(b.cfg.PStates); len(f.k) != n {
		f.k = make([]float64, n)
	}
	f.u = clampUtil(fill)
	df, df0 := b.cfg.dynFraction(f.u), b.cfg.dynFraction(0)
	for ps := range b.cfg.PStates {
		f.k[2*ps], f.k[2*ps+1] = b.dynK(df, int32(ps)), b.dynK(df0, int32(ps))
	}
}

// FillSlots is a dispatch write: every slot in [lo, hi) that is not Off
// gets utilization f's fill if it had capacity before the write and 0
// otherwise, as Server.SetUtilization would assign them, with the
// deltas folded into p. An Off slot is left unwritten, its last sync
// time included.
//
// It is writeSlot's opUtil specialized to an Active slot, whose state,
// idle draw and capacity the write leaves as they are: the loop takes
// its draw from f's table and keeps the partial's power and energy in
// locals. A Booting or ShuttingDown slot, whose transition may fall due,
// goes through writeSlot itself. Each sum takes the same deltas in the
// same order as a writeSlot per slot would fold them, so the bits match.
func (b *Block) FillSlots(p *Sums, now time.Duration, lo, hi int, f *Fill) {
	state, lastAt, power, energy := b.state[lo:hi], b.lastAt[lo:hi], b.power[lo:hi], b.energy[lo:hi]
	util, avail, idle, throttle, pstate := b.util[lo:hi], b.avail[lo:hi], b.idle[lo:hi], b.throttle[lo:hi], b.pstate[lo:hi]
	u1, k := f.u, f.k
	fold := b.changed != nil || b.rackOf != nil
	pw, en := p.PowerW, p.EnergyJ
	var dt float64
	last := time.Duration(-1)
	for i, st := range state {
		if st == StateOff {
			continue
		}
		if at := lastAt[i]; at != last {
			dt, last = b.since(lo+i, now), at
		}
		// Only a slot that had capacity before this write carries load,
		// as the spread saw it.
		u, ki := u1, 2*int(pstate[i])
		if !(avail[i] > 0) {
			u, ki = 0, ki+1
		}
		if st != StateActive {
			p.PowerW, p.EnergyJ = pw, en
			b.writeSlot(p, lo+i, now, dt, &writeArgs{op: opUtil, x: u})
			pw, en = p.PowerW, p.EnergyJ
			continue
		}
		p0, e0 := power[i], energy[i]
		e := e0 + p0*dt
		p1 := activeDraw(idle[i], k[ki], throttle[i])
		lastAt[i] = now
		util[i] = u
		energy[i] = e
		power[i] = p1
		if p1 == p0 && e == e0 {
			continue
		}
		d := p1 - p0
		pw += d
		en += e - e0
		if fold {
			b.foldChange(p, int32(lo+i), d)
		}
	}
	p.PowerW, p.EnergyJ = pw, en
}

// SyncSlots syncs every slot in [lo, hi) that is not Off to now,
// folding the deltas into p. An Off slot is left unwritten: its power is
// 0, so a sync would change only its last sync time.
//
// It is writeSlot's opSync specialized to an Active slot, whose sync
// moves only its energy and last sync time: its power delta is zero,
// which moves no group sum, and adding it would leave the partial's
// power as it is (a partial starts at +0 and so never holds -0). A
// Booting or ShuttingDown slot, whose transition may fall due, goes
// through writeSlot itself.
func (b *Block) SyncSlots(p *Sums, now time.Duration, lo, hi int) {
	state, lastAt, power, energy := b.state[lo:hi], b.lastAt[lo:hi], b.power[lo:hi], b.energy[lo:hi]
	tracked := b.changed != nil
	en := p.EnergyJ
	var dt float64
	last := time.Duration(-1)
	for i, st := range state {
		if st == StateOff {
			continue
		}
		if at := lastAt[i]; at != last {
			dt, last = b.since(lo+i, now), at
		}
		if st != StateActive {
			p.EnergyJ = en
			b.writeSlot(p, lo+i, now, dt, &writeArgs{op: opSync})
			en = p.EnergyJ
			continue
		}
		e0 := energy[i]
		e := e0 + power[i]*dt
		lastAt[i] = now
		energy[i] = e
		if e == e0 {
			continue
		}
		en += e - e0
		if tracked {
			b.foldChange(p, int32(lo+i), 0)
		}
	}
	p.EnergyJ = en
}

// SumCapacity returns the positive available capacity of slots [lo, hi),
// summed in slot order: Dispatch's capacity pass over one shard.
func (b *Block) SumCapacity(lo, hi int) float64 {
	var sum float64
	for _, c := range b.avail[lo:hi] {
		if c > 0 {
			sum += c
		}
	}
	return sum
}

// SetPStates moves every slot in [lo, hi) to DVFS index idx at now,
// folding the deltas into p. The index must be valid (see CheckPState).
func (b *Block) SetPStates(p *Sums, now time.Duration, lo, hi, idx int) {
	w := writeArgs{op: opPState, n: idx}
	var dt float64
	last := time.Duration(-1)
	for slot := lo; slot < hi; slot++ {
		if at := b.lastAt[slot]; at != last {
			dt, last = b.since(slot, now), at
		}
		b.writeSlot(p, slot, now, dt, &w)
	}
}

// ObserveInlets is the trip scan over slots [lo, hi): each slot that is
// not Off and whose zone's inlet, inletOf[zone], exceeds the trip
// threshold observes it at now, as Server.ObserveInlet would, folding
// the deltas — a trip for every committed slot — into p; other slots
// are left unwritten. It computes the elapsed seconds once per run of
// equal last writes, and requires groups (see SetGroups).
func (b *Block) ObserveInlets(p *Sums, now time.Duration, lo, hi int, inletOf []float64) {
	state, lastAt, zoneOf := b.state[lo:hi], b.lastAt[lo:hi], b.zoneOf[lo:hi]
	trip := b.cfg.TripTempC
	w := writeArgs{op: opInlet}
	var dt float64
	last := time.Duration(-1)
	for i, st := range state {
		x := inletOf[zoneOf[i]]
		if st == StateOff || !(x > trip) {
			continue
		}
		if at := lastAt[i]; at != last {
			dt, last = b.since(lo+i, now), at
		}
		w.x = x
		b.writeSlot(p, lo+i, now, dt, &w)
	}
}

// LiveEnd returns the live bound, trimmed past the Off slots at the top:
// one past the highest slot that is not Off, 0 if every slot is Off. The
// trim is amortized O(1): each slot it passes on the way down, a PowerOn
// passed on the way up.
func (b *Block) LiveEnd() int {
	for b.live > 0 && b.state[b.live-1] == StateOff {
		b.live--
	}
	return b.live
}

// CheckPState reports an out-of-range DVFS index as slot's error.
func (b *Block) CheckPState(slot, idx int) error {
	if idx < 0 || idx >= len(b.cfg.PStates) {
		return fmt.Errorf("server %s: p-state %d out of range [0,%d)", b.name(slot), idx, len(b.cfg.PStates))
	}
	return nil
}

// completeAt syncs slot at its boot or shutdown deadline.
func (b *Block) completeAt(e *sim.Engine, slot int) {
	h := &b.handles[slot]
	if h.done == nil {
		h.done = func(e *sim.Engine) { h.Sync(e.Now()) }
	}
	e.At(b.due[slot], h.done)
}

// Partial returns an empty Sums shaped like the block's, for one shard of
// a sharded loop. Each partial's group sums are a separately allocated,
// cache-line aligned slab, so shards never share a line.
func (b *Block) Partial() Sums {
	var p Sums
	if b.rackOf != nil {
		p.Rack = par.AlignedFloats(len(b.sums.Rack))
		p.Zone = par.AlignedFloats(len(b.sums.Zone))
	}
	return p
}

// Merge folds a partial into the block's sums and empties it.
func (b *Block) Merge(p *Sums) {
	s := &b.sums
	s.PowerW += p.PowerW
	s.EnergyJ += p.EnergyJ
	s.On, s.Active, s.Trips, s.Boots = s.On+p.On, s.Active+p.Active, s.Trips+p.Trips, s.Boots+p.Boots
	p.PowerW, p.EnergyJ, p.On, p.Active, p.Trips, p.Boots = 0, 0, 0, 0, 0, 0
	s.changes = append(s.changes, p.changes...)
	p.changes = p.changes[:0]
	if p.groupDirty {
		mergeGroups(s.Rack, p.Rack)
		mergeGroups(s.Zone, p.Zone)
		p.groupDirty = false
	}
}

// mergeGroups adds each nonzero partial group sum into dst and zeroes it.
func mergeGroups(dst, part []float64) {
	for g, d := range part {
		if d != 0 {
			dst[g] += d
			part[g] = 0
		}
	}
}

// SetGroups installs slot → rack and slot → zone maps (validated by the
// caller) and starts maintaining per-group power sums; Rebase fills
// them. Called again with the same group counts, it reuses every slice;
// otherwise partials taken before the call have the wrong groups: take
// them again.
func (b *Block) SetGroups(rackOf, zoneOf []int, nRacks, nZones int) {
	if b.rackOf == nil {
		b.rackOf, b.zoneOf = make([]int32, len(b.state)), make([]int32, len(b.state))
	}
	for i := range b.rackOf {
		b.rackOf[i], b.zoneOf[i] = int32(rackOf[i]), int32(zoneOf[i])
	}
	if len(b.sums.Rack) != nRacks || len(b.sums.Zone) != nZones {
		b.sums.Rack, b.sums.Zone = make([]float64, nRacks), make([]float64, nZones)
		b.rackScratch, b.zoneScratch = make([]float64, nRacks), make([]float64, nZones)
	}
}

// GroupOf reports slot's rack and zone (see SetGroups).
func (b *Block) GroupOf(slot int) (rack, zone int) { return int(b.rackOf[slot]), int(b.zoneOf[slot]) }

// TrackChanges turns on change tracking: from the call on, every slot
// whose state, power, energy or trips move joins the change set (see
// Changed) until ResetChanged. Until it is called, a write pays one nil
// check for tracking.
func (b *Block) TrackChanges() {
	if b.changed == nil {
		b.changed = make([]bool, len(b.state))
	}
}

// Changed returns the slots that changed since the last ResetChanged,
// each once (shared slice, valid until ResetChanged).
func (b *Block) Changed() []int32 { return b.sums.changes }

// ResetChanged empties the change set.
func (b *Block) ResetChanged() {
	for _, slot := range b.sums.changes {
		b.changed[slot] = false
	}
	b.sums.changes = b.sums.changes[:0]
}

// Rebase recomputes the float sums (power, energy, per-group power)
// exactly from the columns in slot order, discarding incremental
// rounding drift. The counters stay incremental. It reports the largest
// gap it closed between a maintained power sum and its recompute, and
// the exact total power as that gap's scale.
func (b *Block) Rebase() (driftW, exactW float64) {
	pw, en := b.scan()
	s := &b.sums
	driftW = math.Abs(s.PowerW - pw)
	for r := range b.rackScratch {
		driftW = math.Max(driftW, math.Abs(s.Rack[r]-b.rackScratch[r]))
	}
	for z := range b.zoneScratch {
		driftW = math.Max(driftW, math.Abs(s.Zone[z]-b.zoneScratch[z]))
	}
	copy(s.Rack, b.rackScratch)
	copy(s.Zone, b.zoneScratch)
	s.PowerW, s.EnergyJ = pw, en
	return driftW, math.Abs(pw)
}

// VerifyAggregates cross-validates the derived columns and the
// maintained sums against a fresh scan: columns and counters must match
// exactly, float sums within relTol·max(|a|,|b|) + absTol.
func (b *Block) VerifyAggregates(relTol, absTol float64) error {
	on, active, trips, boots := 0, 0, 0, 0
	var pw, en float64
	for i, st := range b.state {
		on += committed(st)
		active += activeIn(st)
		trips += int(b.trips[i])
		boots += int(b.boots[i])
		idle := b.idleOf(b.parked[i])
		if idle != b.idle[i] {
			return fmt.Errorf("server: slot %d idle column %v != recomputed %v", i, b.idle[i], idle)
		}
		if c := b.capacityOf(st, b.pstate[i], b.parked[i], b.throttle[i]); c != b.avail[i] {
			return fmt.Errorf("server: slot %d capacity column %v != recomputed %v", i, b.avail[i], c)
		}
		p := b.drawOf(st, idle, b.cfg.dynFraction(b.util[i]), b.pstate[i], b.throttle[i])
		if p != b.power[i] {
			return fmt.Errorf("server: slot %d power column %v != recomputed power %v", i, b.power[i], p)
		}
		pw += p
		en += b.energy[i]
	}
	s := &b.sums
	if on != s.On {
		return fmt.Errorf("server: maintained on count %d != scan %d", s.On, on)
	}
	if active != s.Active {
		return fmt.Errorf("server: maintained active count %d != scan %d", s.Active, active)
	}
	if trips != s.Trips {
		return fmt.Errorf("server: maintained trips %d != scan %d", s.Trips, trips)
	}
	if boots != s.Boots {
		return fmt.Errorf("server: maintained boots %d != scan %d", s.Boots, boots)
	}
	if !withinTol(s.PowerW, pw, relTol, absTol) {
		return fmt.Errorf("server: maintained power %v W != scan %v W", s.PowerW, pw)
	}
	if !withinTol(s.EnergyJ, en, relTol, absTol) {
		return fmt.Errorf("server: maintained energy %v J != scan %v J", s.EnergyJ, en)
	}
	b.scan()
	rp, zp := b.rackScratch, b.zoneScratch
	for r := range rp {
		if !withinTol(s.Rack[r], rp[r], relTol, absTol) {
			return fmt.Errorf("server: maintained rack %d power %v W != scan %v W", r, s.Rack[r], rp[r])
		}
	}
	for z := range zp {
		if !withinTol(s.Zone[z], zp[z], relTol, absTol) {
			return fmt.Errorf("server: maintained zone %d power %v W != scan %v W", z, s.Zone[z], zp[z])
		}
	}
	return nil
}

// scan recomputes the float sums from the columns in one pass in slot
// order: it returns the total power and energy, and writes the per-group
// power sums into the scratch slabs. The current rack's and zone's sums
// run in locals, written back when the slot's group changes, so each sum
// takes the same addends in the same order as a slot-by-slot fold.
func (b *Block) scan() (pw, en float64) {
	power, energy := b.power, b.energy
	if b.rackOf == nil {
		for i, p := range power {
			pw += p
			en += energy[i]
		}
		return pw, en
	}
	racks, zones := b.rackScratch, b.zoneScratch
	clear(racks)
	clear(zones)
	rackOf, zoneOf := b.rackOf[:len(power)], b.zoneOf[:len(power)]
	var rack, zone int32 // group 0's sums start at zero, like every other
	var rackW, zoneW float64
	for i, p := range power {
		pw += p
		en += energy[i]
		if r := rackOf[i]; r != rack {
			racks[rack] = rackW
			rack, rackW = r, racks[r]
		}
		rackW += p
		if z := zoneOf[i]; z != zone {
			zones[zone] = zoneW
			zone, zoneW = z, zones[z]
		}
		zoneW += p
	}
	racks[rack], zones[zone] = rackW, zoneW
	return pw, en
}

// withinTol reports |a-b| <= relTol*max(|a|,|b|) + absTol.
func withinTol(a, b, relTol, absTol float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))+absTol
}
