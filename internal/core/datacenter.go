package core

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/cooling"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// DataCenterConfig assembles a complete facility: a server fleet placed
// into the power tree's racks, racks mapped onto cooling zones, a
// heat-rejection plant, and optional telemetry collection.
type DataCenterConfig struct {
	// Name identifies the facility.
	Name string
	// ServerConfig is the homogeneous server model.
	ServerConfig server.Config
	// ServersPerRack places this many servers in each rack of the
	// power topology.
	ServersPerRack int
	// Topology shapes the power tree.
	Topology power.TopologyConfig
	// Room shapes the thermal model. len(Room.Zones) zones.
	Room cooling.RoomConfig
	// ZoneOfRack maps each rack index to a cooling zone.
	ZoneOfRack []int
	// Plant is the heat-rejection plant.
	Plant cooling.PlantConfig
	// SampleEvery enables telemetry collection at this period (0
	// disables; the paper's scenario samples every 15 s).
	SampleEvery time.Duration
	// Pool, when non-nil, executes the facility's sharded per-tick loops
	// (physics trip scans, dispatch, frame sampling) on its workers. Nil
	// runs the same sharded structure inline; results are identical.
	Pool *par.Pool
}

// DataCenter is the assembled cyber-physical facility of Figure 4's
// bottom half: computing fleet, power distribution, and cooling coupled
// through heat and protected by thermal trips, with telemetry feeding the
// macro layer. Server i is the fleet's slot i; the fleet block's
// slot→rack and slot→zone maps alone hold its placement, and the trip
// scan and the degrader's zone shed read the zone map in slot order. The
// telemetry frame puts the zone inlets first and the servers after them
// in slot order, so the fleet's Off tail is the tail of every round.
type DataCenter struct {
	cfg    DataCenterConfig
	engine *sim.Engine
	fleet  *Fleet
	topo   *power.Topology
	room   *cooling.Room
	store  *telemetry.Store
	// The per-entity series form one synchronously-sampled frame: zone
	// z's inlet occupies column z, and server i's power and utilization
	// columns Zones()+2i and Zones()+2i+1. A sample round fills a prefix
	// of frameBuf and hands the store one columnar append — no per-key
	// locking, hashing, or pyramid walks (the §5.3 ingest fast path).
	frames   *telemetry.FrameWriter
	frameBuf []float64
	inletOf  []float64 // each zone's inlet at the last coupling tick
	attached bool
	// The sample fill's shard body, bound once so a fan-out allocates no
	// closure.
	fillFn func(int, par.Range)
	// fillEnd is the fleet's live bound at the last sample round: the
	// round holds servers [0, fillEnd), and every server from fillEnd on
	// reads 0 in it without being passed.
	fillEnd int
}

// NewDataCenter builds and wires the facility.
func NewDataCenter(e *sim.Engine, cfg DataCenterConfig) (*DataCenter, error) {
	if cfg.ServersPerRack <= 0 {
		return nil, fmt.Errorf("core: servers per rack %d must be positive", cfg.ServersPerRack)
	}
	topo, err := power.NewTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	room, err := cooling.NewRoom(cfg.Room)
	if err != nil {
		return nil, err
	}
	if err := cfg.Plant.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.ZoneOfRack) != len(topo.Racks) {
		return nil, fmt.Errorf("core: ZoneOfRack has %d entries for %d racks", len(cfg.ZoneOfRack), len(topo.Racks))
	}
	for ri, z := range cfg.ZoneOfRack {
		if z < 0 || z >= room.Zones() {
			return nil, fmt.Errorf("core: rack %d mapped to invalid zone %d", ri, z)
		}
	}
	if cfg.SampleEvery < 0 {
		return nil, fmt.Errorf("core: negative sample period")
	}

	nServers := len(topo.Racks) * cfg.ServersPerRack
	fleet, err := NewFleet(e, cfg.ServerConfig, nServers)
	if err != nil {
		return nil, err
	}
	fleet.SetParallel(cfg.Pool)
	dc := &DataCenter{
		cfg:     cfg,
		engine:  e,
		fleet:   fleet,
		topo:    topo,
		room:    room,
		inletOf: make([]float64, room.Zones()),
	}
	dc.fillFn = dc.fillShard
	rackOf, zoneOf := make([]int, nServers), make([]int, nServers)
	for i := range rackOf {
		rackOf[i] = i / cfg.ServersPerRack
		zoneOf[i] = cfg.ZoneOfRack[rackOf[i]]
	}
	// One load closure per rack reading the fleet's maintained per-rack
	// sum — the power tree no longer fans out to N per-server closures.
	if err := fleet.SetPowerGroups(rackOf, zoneOf, len(topo.Racks), room.Zones()); err != nil {
		return nil, err
	}
	for r := range topo.Racks {
		r := r // capture for the load closure
		topo.Racks[r].AddLoad(func() float64 { return fleet.RackPowerW(r) })
	}
	e.Register(topo)
	if cfg.SampleEvery > 0 {
		dc.store, err = telemetry.NewStore(telemetry.DefaultConfig())
		if err != nil {
			return nil, err
		}
		keys := frameKeys(nServers, room.Zones())
		dc.frames, err = dc.store.Frames(keys)
		if err != nil {
			return nil, err
		}
		dc.frameBuf = par.AlignedFloats(len(keys))
	}
	return dc, nil
}

// frameKeys names the facility frame's columns in order: each zone's
// inlet ("zone%02d/inlet"), then each server's power and utilization
// ("srv%04d/power", "srv%04d/util"). The names are written into one
// buffer and sliced from one string, not formatted one at a time.
func frameKeys(servers, zones int) []string {
	// No name is longer than this one below 100,000 servers.
	buf := make([]byte, 0, (zones+2*servers)*len("srv00000/power"))
	ends := make([]int, 0, zones+2*servers)
	name := func(prefix string, n, digits int, suffix string) {
		buf = append(buf, prefix...)
		for lim := 1; digits > 1; digits-- {
			if lim *= 10; n < lim {
				buf = append(buf, '0')
			}
		}
		buf = append(strconv.AppendInt(buf, int64(n), 10), suffix...)
		ends = append(ends, len(buf))
	}
	for z := range zones {
		name("zone", z, 2, "/inlet")
	}
	for i := range servers {
		name("srv", i, 4, "/power")
		name("srv", i, 4, "/util")
	}
	names := string(buf)
	keys := make([]string, len(ends))
	start := 0
	for k, end := range ends {
		keys[k], start = names[start:end], end
	}
	return keys
}

// Fleet exposes the server fleet.
func (dc *DataCenter) Fleet() *Fleet { return dc.fleet }

// Room exposes the thermal model.
func (dc *DataCenter) Room() *cooling.Room { return dc.room }

// Topology exposes the power tree.
func (dc *DataCenter) Topology() *power.Topology { return dc.topo }

// Store exposes the telemetry store (nil unless sampling was enabled).
func (dc *DataCenter) Store() *telemetry.Store { return dc.store }

// Frames exposes the facility's columnar telemetry frame (nil unless
// sampling was enabled). Column layout: zone z's inlet temperature is
// column z (see ZoneInletColumn); server i's power and utilization occupy
// columns Room().Zones()+2i and Room().Zones()+2i+1. A round stops at
// the fleet's live bound, and the servers past it read 0. Live exporters
// read the open row through FrameWriter.LatestInto instead of
// re-aggregating.
func (dc *DataCenter) Frames() *telemetry.FrameWriter { return dc.frames }

// ZoneInletColumn reports the frame column holding zone z's inlet
// temperature: the inlets are the frame's first columns.
func (dc *DataCenter) ZoneInletColumn(z int) int { return z }

// SampleEvery reports the telemetry sampling period (0 when disabled).
func (dc *DataCenter) SampleEvery() time.Duration { return dc.cfg.SampleEvery }

// ZoneOfServer reports the cooling zone of server i.
func (dc *DataCenter) ZoneOfServer(i int) int { _, z := dc.fleet.block.GroupOf(i); return z }

// RackOfServer reports the power-tree rack of server i.
func (dc *DataCenter) RackOfServer(i int) int { r, _ := dc.fleet.block.GroupOf(i); return r }

// Attach wires the facility onto the engine: room physics and CRAC
// control, the heat/thermal-protection coupling loop, and telemetry
// sampling. It returns their handles in that scheduling order. A data
// center attaches once; a second call returns an error.
func (dc *DataCenter) Attach() ([]sim.Handle, error) {
	if dc.attached {
		return nil, fmt.Errorf("core: data center already attached")
	}
	dc.attached = true
	handles := dc.room.Attach(dc.engine)

	// Couple servers ↔ room on the physics tick: zone heat in, inlet
	// temperatures (and protective trips, §2.2) out, in one pass over the
	// zones. Zone heat comes from the fleet's maintained per-zone sums.
	// Only a hot tick, where some inlet exceeds the servers' trip
	// threshold (one config for the whole fleet), runs the trip scan over
	// the fleet's powered prefix; a cool tick is O(zones).
	handles = append(handles, dc.engine.Every(dc.room.PhysicsTick(), func(e *sim.Engine) {
		hot := false
		for z := range dc.inletOf {
			if err := dc.room.SetZoneHeat(z, dc.fleet.ZonePowerW(z)); err != nil {
				panic(fmt.Sprintf("core: zone heat: %v", err)) // zones validated at construction
			}
			dc.inletOf[z] = dc.room.ZoneInletC(z)
			hot = hot || dc.inletOf[z] > dc.cfg.ServerConfig.TripTempC
		}
		if hot {
			dc.fleet.observeInlets(e.Now(), dc.inletOf)
		}
	}))

	if dc.store != nil {
		handles = append(handles, dc.engine.Every(dc.cfg.SampleEvery, func(e *sim.Engine) {
			dc.sample(e.Now())
		}))
	}
	return handles, nil
}

// sample pushes one telemetry round into the store as a single columnar
// frame append. Power is piecewise-constant between events, so no
// per-server Sync is needed to read it; the fleet's running sums are
// rebased here periodically to shed incremental float drift. The round
// is the zone inlets and the servers before the fleet's live bound: an
// Off server reads 0 W at 0 utilization, and every server past the bound
// is Off, so the round stops there and the frame reads the Off tail as
// +0 without storing or folding it. The per-server columns fill per
// fleet shard — pure slot-local reads into disjoint frame columns.
// AppendPar copies the round into the frame's raw band; when the pyramid
// levels must catch up on the pending rounds, it fans their column folds
// out over the fleet's pool by column shard. MaybeRebase stays strictly
// serial, once per round, after the append.
func (dc *DataCenter) sample(now time.Duration) {
	f := dc.fleet
	dc.fillEnd = f.block.LiveEnd()
	f.pool.RunRanges(f.shardsBefore(dc.fillEnd), dc.fillFn)
	for z := range dc.inletOf {
		dc.frameBuf[z] = dc.room.ZoneInletC(z)
	}
	round := dc.frameBuf[:len(dc.inletOf)+2*dc.fillEnd]
	if err := dc.frames.AppendPar(now, round, f.pool); err != nil {
		panic(fmt.Sprintf("core: telemetry: %v", err)) // single writer, monotone time
	}
	f.MaybeRebase()
}

// fillShard is sample's body over one fleet shard, clipped at the live
// bound: copy each server's power and utilization columns into its two
// frame columns, after the zone inlets.
func (dc *DataCenter) fillShard(_ int, r par.Range) {
	f := dc.fleet
	cols := dc.frameBuf[len(dc.inletOf):]
	for i, hi := r.Lo, min(r.Hi, dc.fillEnd); i < hi; i++ {
		cols[2*i] = f.block.PowerAt(i)
		cols[2*i+1] = f.block.UtilizationAt(i)
	}
}

// PreferCoolingSensitiveZones places the servers so those in zones the
// CRACs regulate well activate first and shed last — the mechanism
// behind avoiding the §5.1 migration hazard (keep load where the cooling
// can see it): slot i takes the placement of the i-th slot in a stable
// sort by descending zone sensitivity, so a handle may change rack and
// zone. Call it while every server is Off (otherwise it moves nothing and
// names one that is not) and before anything caches RackOfServer,
// ZoneOfServer or per-rack server lists (NewDegrader, CapEnforcer inputs).
// It reads each zone's size from the fleet's zone map in one pass.
func (dc *DataCenter) PreferCoolingSensitiveZones() error {
	// A counting sort: bucket each slot by the number of zones more
	// sensitive than its own, in slot order, which is the stable sort.
	zones := dc.room.Zones()
	rank, next := make([]int, zones), make([]int, zones+1)
	for z := range zones {
		for w := range zones {
			if dc.room.ZoneSensitivity(w) > dc.room.ZoneSensitivity(z) {
				rank[z]++
			}
		}
	}
	for i := range dc.fleet.Size() {
		next[rank[dc.ZoneOfServer(i)]+1]++
	}
	for k := range zones {
		next[k+1] += next[k]
	}
	rackOf, zoneOf := make([]int, dc.fleet.Size()), make([]int, dc.fleet.Size())
	for i := range rackOf {
		r, z := dc.fleet.block.GroupOf(i)
		to := next[rank[z]]
		rackOf[to], zoneOf[to] = r, z
		next[rank[z]]++
	}
	return dc.fleet.SetPowerGroups(rackOf, zoneOf, len(dc.topo.Racks), zones)
}

// Trips reports the fleet's protective shutdowns, all of them caused by
// the coupling loop: it alone reports inlets to a facility's servers.
func (dc *DataCenter) Trips() int { return dc.fleet.Trips() }

// ITPowerW reports the instantaneous fleet draw.
func (dc *DataCenter) ITPowerW() float64 { return dc.fleet.PowerW() }

// Flow evaluates the power tree.
func (dc *DataCenter) Flow() power.Flow { return dc.topo.Feed.Evaluate() }

// PUEOutsideC and PUEOutsideRH are the outside temperature (°C) and
// relative humidity at which the batch summaries, the figures and the
// live snapshots all report PUE.
const (
	PUEOutsideC  = 18
	PUEOutsideRH = 0.5
)

// PUEAt computes the facility PUE under the given outside conditions:
// IT power from the fleet, distribution losses from the tree, plant power
// for removing the room's current cooling load.
func (dc *DataCenter) PUEAt(outsideC, outsideRH float64) (float64, cooling.PlantPower, error) {
	return dc.PUEOf(dc.Flow(), outsideC, outsideRH)
}

// PUEOf is PUEAt with the distribution losses taken from flow, a power
// tree evaluation the caller already holds (for example one made with
// Feed.EvaluateInto into a reused buffer), so the tree is not walked
// twice. flow must describe the tree's current state.
func (dc *DataCenter) PUEOf(flow power.Flow, outsideC, outsideRH float64) (float64, cooling.PlantPower, error) {
	it := dc.ITPowerW()
	plant, err := dc.cfg.Plant.Power(dc.room.CoolingLoadW(), outsideC, outsideRH)
	if err != nil {
		return 0, plant, err
	}
	pue, err := cooling.PUE(it, flow.TotalLoss(), plant.TotalW())
	return pue, plant, err
}
