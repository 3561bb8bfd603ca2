package server

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// kernelBlock decodes data into a block of at most 64 slots for
// FuzzBlockKernels, and the slot range [lo, hi) a kernel writes. Each slot
// gets a state, a pending deadline that may have passed by now, a
// P-state, a throttle, parked cores, a utilization if it is active, an
// energy and a last write at or before now; its idle, capacity and
// power columns are derived as a write would leave them. Flags in the
// first bytes give the block a concave power curve, a capacity so small
// that an active slot's underflows to 0 unless it runs at full speed,
// rack and zone maps (any slot in any group) with a per-zone inlet table
// for the trip scan (each inlet NaN, or within 6 °C below to 10 °C above
// the trip threshold, the threshold itself included), and change
// tracking, with some slots already in the change set. The live bound is
// n, which LiveEnd trims, and Sums.Live counts the slots decoded not Off,
// so Off slots below the bound (holes) come and go with the bytes. The
// last bytes give the number of slots the switch kernels boot and shed,
// and the delay between the two. Missing bytes read as zero.
func kernelBlock(now time.Duration, data []byte) (b *Block, lo, hi int, inletOf []float64, sw switches) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	n, flags := 1+next()%64, next()
	cfg := DefaultConfig()
	if flags&1 != 0 {
		cfg.PowerCurve = BigLittleCurve()
	}
	if flags&8 != 0 {
		cfg.Capacity = 5e-324
	}
	b, err := NewBlock(cfg, n)
	if err != nil {
		panic(err)
	}
	lo = next() % (n + 1)
	hi = lo + next()%(n-lo+1)
	if flags&2 != 0 {
		racks, zones := 1+next()%7, 1+next()%4
		rackOf, zoneOf := make([]int, n), make([]int, n)
		for i := range rackOf {
			rackOf[i], zoneOf[i] = next()%racks, next()%zones
		}
		b.SetGroups(rackOf, zoneOf, racks, zones)
		inletOf = make([]float64, zones)
		for z := range inletOf {
			inletOf[z] = math.NaN()
			if v := next(); v%8 != 7 {
				inletOf[z] = cfg.TripTempC - 6 + float64(v)/16
			}
		}
	}
	if flags&4 != 0 {
		b.TrackChanges()
	}
	states := []State{StateOff, StateBooting, StateActive, StateShuttingDown}
	for i := range b.state {
		st := states[next()%4]
		b.state[i] = st
		// Deadlines land in [now-60s, now+67s]: due, due at now, or
		// pending.
		b.due[i] = now + time.Duration(next()%128-60)*time.Second
		b.pstate[i] = int32(next() % len(cfg.PStates))
		b.throttle[i] = float64(1+next()) / 256
		b.parked[i] = int32(next() % cfg.Cores)
		b.idle[i] = b.idleOf(b.parked[i])
		if st == StateActive {
			b.util[i] = float64(next()) / 255
		}
		b.avail[i] = b.capacityOf(st, b.pstate[i], b.parked[i], b.throttle[i])
		b.power[i] = b.drawOf(st, b.idle[i], cfg.dynFraction(b.util[i]), b.pstate[i], b.throttle[i])
		b.energy[i] = 1e4 * float64(next())
		// Few distinct last writes, so the kernels' per-run elapsed time
		// meets runs of equal and of changing instants.
		b.lastAt[i] = now - time.Duration(next()%4)*10*time.Second
		if b.changed != nil && next()%4 == 0 {
			b.changed[i] = true
			b.sums.changes = append(b.sums.changes, int32(i))
		}
		b.sums.Live += liveIn(st)
	}
	b.live = n
	sw = switches{boot: next() % (n + 2), shed: next() % (n + 2), after: time.Duration(next()%128) * time.Second}
	return b, lo, hi, inletOf, sw
}

// switches are the switch kernels' inputs in FuzzBlockKernels: boot
// slots, then, after a delay, shed slots.
type switches struct {
	boot, shed int
	after      time.Duration
}

// cloneBlock copies every column, the group maps, the change flags and
// the block's sums into a new block from the same config.
func cloneBlock(b *Block) *Block {
	c, err := NewBlock(b.cfg, len(b.state))
	if err != nil {
		panic(err)
	}
	copy(c.state, b.state)
	copy(c.pstate, b.pstate)
	copy(c.parked, b.parked)
	copy(c.trips, b.trips)
	copy(c.boots, b.boots)
	copy(c.crashes, b.crashes)
	copy(c.util, b.util)
	copy(c.throttle, b.throttle)
	copy(c.energy, b.energy)
	copy(c.inlet, b.inlet)
	copy(c.idle, b.idle)
	copy(c.avail, b.avail)
	copy(c.power, b.power)
	copy(c.lastAt, b.lastAt)
	copy(c.due, b.due)
	if b.rackOf != nil {
		c.rackOf, c.zoneOf = slices.Clone(b.rackOf), slices.Clone(b.zoneOf)
		c.rackScratch, c.zoneScratch = slices.Clone(b.rackScratch), slices.Clone(b.zoneScratch)
	}
	c.changed = slices.Clone(b.changed)
	c.sums = cloneSums(&b.sums)
	c.live = b.live
	return c
}

func cloneSums(s *Sums) Sums {
	c := *s
	c.Rack, c.Zone, c.changes = slices.Clone(s.Rack), slices.Clone(s.Zone), slices.Clone(s.changes)
	return c
}

// requireSameBlock fails t unless every column, change flag and sum of
// got and want, and the partials gp and wp, are equal bit for bit, and
// no power or utilization column of got holds -0: a facility's telemetry
// frame reads the servers a sample round does not pass as +0, and equals
// the frame of zero-padded rounds only while no sampled column is -0.
func requireSameBlock(t *testing.T, what string, got, want *Block, gp, wp *Sums) {
	t.Helper()
	for i := range got.state {
		if got.power[i] == 0 && math.Signbit(got.power[i]) || got.util[i] == 0 && math.Signbit(got.util[i]) {
			t.Fatalf("%s: slot %d draws %v W at %v utilization: a -0", what, i, got.power[i], got.util[i])
		}
	}
	for i := range want.state {
		type col struct {
			name      string
			got, want float64
		}
		for _, c := range []col{
			{"util", got.util[i], want.util[i]},
			{"throttle", got.throttle[i], want.throttle[i]},
			{"energy", got.energy[i], want.energy[i]},
			{"inlet", got.inlet[i], want.inlet[i]},
			{"idle", got.idle[i], want.idle[i]},
			{"avail", got.avail[i], want.avail[i]},
			{"power", got.power[i], want.power[i]},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("%s: slot %d %s %v, per-slot writes %v", what, i, c.name, c.got, c.want)
			}
		}
		if got.state[i] != want.state[i] || got.pstate[i] != want.pstate[i] || got.parked[i] != want.parked[i] ||
			got.trips[i] != want.trips[i] || got.boots[i] != want.boots[i] || got.crashes[i] != want.crashes[i] ||
			got.lastAt[i] != want.lastAt[i] || got.due[i] != want.due[i] {
			t.Fatalf("%s: slot %d is %v/%d/%d/%d/%d/%d at %v due %v; per-slot writes %v/%d/%d/%d/%d/%d at %v due %v",
				what, i, got.state[i], got.pstate[i], got.parked[i], got.trips[i], got.boots[i], got.crashes[i], got.lastAt[i], got.due[i],
				want.state[i], want.pstate[i], want.parked[i], want.trips[i], want.boots[i], want.crashes[i], want.lastAt[i], want.due[i])
		}
	}
	if !slices.Equal(got.changed, want.changed) {
		t.Fatalf("%s: change flags %v, per-slot writes %v", what, got.changed, want.changed)
	}
	requireSameSums(t, what+": block", &got.sums, &want.sums)
	requireSameSums(t, what+": partial", gp, wp)
}

func requireSameSums(t *testing.T, what string, got, want *Sums) {
	t.Helper()
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if math.Float64bits(got.PowerW) != math.Float64bits(want.PowerW) ||
		math.Float64bits(got.EnergyJ) != math.Float64bits(want.EnergyJ) ||
		got.On != want.On || got.Active != want.Active || got.Live != want.Live ||
		got.Trips != want.Trips || got.Boots != want.Boots ||
		!same(got.Rack, want.Rack) || !same(got.Zone, want.Zone) ||
		!slices.Equal(got.changes, want.changes) || got.groupDirty != want.groupDirty {
		t.Fatalf("%s sums %+v, per-slot writes %+v", what, *got, *want)
	}
}

// FuzzBlockKernels holds the column kernels to writeSlot, bit for bit.
// On a block decoded by kernelBlock, it sums the capacity of the slot
// range, runs the trip scan over it with ObserveInlets if the block has
// groups, dispatches fill to it three times with FillSlots and, a delay
// later, syncs it with SyncSlots, each into a shard partial. A copy of
// the block takes the same writes one slot at a time, in slot order,
// through writeSlot into its own partial: opInlet at its zone's inlet
// if that exceeds the trip threshold, opUtil at fill if the slot had
// capacity and at 0 if not, then opSync, skipping the slots that are
// Off. The capacity sum must equal the slot-order sum of the positive
// capacities, and after each kernel every column, change flag and sum of
// the two blocks must agree bit for bit, the change sets in the same
// order; a slot outside the range must not move.
//
// Then both blocks merge their partials and switch, each on its own
// engine: the block boots with BootLowest and, a delay later, sheds with
// ShedHighest, one completion event per call; the copy makes the same
// switches one handle at a time, as SetTarget's loop of PowerOn and
// PowerOff calls would, one completion event each. Both engines run to
// the shed, and then past every deadline. After each step the two blocks
// must agree bit for bit as above, and on the switch counts and LiveEnd.
func FuzzBlockKernels(f *testing.F) {
	// Seeds of random bytes, one per combination of flags, at fills in
	// and out of [0, 1].
	rng := rand.New(rand.NewSource(7))
	fills := []float64{0.6, math.NaN(), -0.5, 1.7, 0.3, 1, 0, 0.95}
	for i, flags := range []byte{0, 2, 4, 6, 7, 8, 14, 15} {
		data := make([]byte, 1200)
		rng.Read(data)
		data[1] = flags
		f.Add(fills[i], uint8(rng.Intn(256)), data)
	}
	// A tracked seed with groups over all 64 slots, whose four zones'
	// inlets are NaN, cool, at the trip threshold and hot.
	data := make([]byte, 1200)
	rng.Read(data)
	data[0], data[1], data[2], data[3], data[5] = 63, 6, 0, 64, 3
	copy(data[6+2*64:], []byte{7, 0, 96, 200})
	f.Add(0.6, uint8(30), data)
	// A block without holes: the first 12 of 16 slots are Booting, Active
	// or ShuttingDown in turn, with deadlines the kernels do not reach,
	// and the rest Off, so the boot starts at the live bound.
	data = []byte{15, 0, 0, 16}
	for i := range 16 {
		st := byte(0)
		if i < 12 {
			st = byte(1 + i%3)
		}
		data = append(data, st, 127, 0, 255, 0) // state, due, P-state, throttle, parked
		if st == 2 {
			data = append(data, 128) // utilization
		}
		data = append(data, byte(i), byte(i%4)) // energy, last write
	}
	data = append(data, 6, 9, 30) // boot 6, then shed 9 after 30 s
	f.Add(0.6, uint8(5), data)
	f.Fuzz(func(t *testing.T, fill float64, syncAfter uint8, data []byte) {
		now := 10 * time.Minute
		b, lo, hi, inletOf, sw := kernelBlock(now, data)
		ref := cloneBlock(b)
		p, rp := b.Partial(), ref.Partial()

		var want float64
		for slot := lo; slot < hi; slot++ {
			if c := ref.avail[slot]; c > 0 {
				want += c
			}
		}
		if got := b.SumCapacity(lo, hi); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("capacity sum %v, slot-order sum %v", got, want)
		}

		if inletOf != nil {
			b.ObserveInlets(&p, now, lo, hi, inletOf)
			for slot := lo; slot < hi; slot++ {
				if x := inletOf[ref.zoneOf[slot]]; ref.state[slot] != StateOff && x > ref.cfg.TripTempC {
					ref.writeSlot(&rp, slot, now, ref.since(slot, now), &writeArgs{op: opInlet, x: x})
				}
			}
			requireSameBlock(t, "ObserveInlets", b, ref, &p, &rp)
		}

		// Dispatch three times: again at the same instant, where the
		// write leaves each slot as it is, and ten seconds later, where
		// it moves only energy.
		var plan Fill
		b.PlanFill(&plan, fill)
		for i, what := range []string{"FillSlots", "FillSlots at the same instant", "FillSlots 10 s later"} {
			now += time.Duration(i/2) * 10 * time.Second
			b.FillSlots(&p, now, lo, hi, &plan)
			for slot := lo; slot < hi; slot++ {
				if ref.state[slot] == StateOff {
					continue
				}
				x := 0.0
				if ref.avail[slot] > 0 {
					x = fill
				}
				ref.writeSlot(&rp, slot, now, ref.since(slot, now), &writeArgs{op: opUtil, x: x})
			}
			requireSameBlock(t, what, b, ref, &p, &rp)
		}

		now += time.Duration(syncAfter) * time.Second
		b.SyncSlots(&p, now, lo, hi)
		for slot := lo; slot < hi; slot++ {
			if ref.state[slot] == StateOff {
				continue
			}
			ref.writeSlot(&rp, slot, now, ref.since(slot, now), &writeArgs{op: opSync})
		}
		requireSameBlock(t, "SyncSlots", b, ref, &p, &rp)

		b.Merge(&p)
		ref.Merge(&rp)
		e, re := sim.NewEngine(1), sim.NewEngine(1)
		runTo := func(what string, at time.Duration) {
			t.Helper()
			if err := e.Run(at); err != nil {
				t.Fatal(err)
			}
			if err := re.Run(at); err != nil {
				t.Fatal(err)
			}
			requireSameSwitch(t, what, b, ref, &p, &rp)
		}
		runTo("before the switches", now)
		// oneEvent requires that a kernel call that switched k slots
		// scheduled one completion event, or none if k is 0.
		oneEvent := func(what string, before, k int) {
			t.Helper()
			if got := e.Pending() - before; got != min(k, 1) {
				t.Fatalf("%s switched %d slots and scheduled %d events", what, k, got)
			}
		}
		pending := e.Pending()
		k := b.BootLowest(e, sw.boot)
		oneEvent("BootLowest", pending, k)
		rk := 0
		for slot := range ref.state {
			if rk == sw.boot {
				break
			}
			if ref.state[slot] == StateOff {
				ref.handles[slot].PowerOn(re)
				rk++
			}
		}
		if k != rk {
			t.Fatalf("BootLowest(%d) booted %d, PowerOn calls %d", sw.boot, k, rk)
		}
		requireSameSwitch(t, "BootLowest", b, ref, &p, &rp)
		now += sw.after
		runTo("between the switches", now)
		pending = e.Pending()
		k, rk = b.ShedHighest(e, sw.shed), 0
		oneEvent("ShedHighest", pending, k)
		for slot := ref.LiveEnd() - 1; slot >= 0 && rk < sw.shed; slot-- {
			if st := ref.state[slot]; st == StateActive || st == StateBooting {
				ref.handles[slot].PowerOff(re)
				rk++
			}
		}
		if k != rk {
			t.Fatalf("ShedHighest(%d) shed %d, PowerOff calls %d", sw.shed, k, rk)
		}
		requireSameSwitch(t, "ShedHighest", b, ref, &p, &rp)
		runTo("past every deadline", now+b.cfg.BootDelay+b.cfg.ShutdownDelay)
		if e.Pending() != 0 || re.Pending() != 0 {
			t.Fatalf("%d and %d completions pending past every deadline", e.Pending(), re.Pending())
		}
	})
}

// requireSameSwitch is requireSameBlock plus the live bound.
func requireSameSwitch(t *testing.T, what string, got, want *Block, gp, wp *Sums) {
	t.Helper()
	requireSameBlock(t, what, got, want, gp, wp)
	if g, w := got.LiveEnd(), want.LiveEnd(); g != w {
		t.Fatalf("%s: live bound %d, per-slot writes %d", what, g, w)
	}
}
