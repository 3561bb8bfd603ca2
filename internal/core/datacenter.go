package core

import (
	"fmt"
	"sort"
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
// macro layer.
type DataCenter struct {
	cfg    DataCenterConfig
	engine *sim.Engine
	fleet  *Fleet
	topo   *power.Topology
	room   *cooling.Room
	store  *telemetry.Store
	// The per-entity series form one synchronously-sampled frame: server
	// i's power and utilization occupy columns 2i and 2i+1, the zone
	// inlets follow. A sample round fills frameBuf and hands the store
	// one columnar append — no per-key locking, hashing, or pyramid
	// walks (the §5.3 ingest fast path).
	frames   *telemetry.FrameWriter
	frameBuf []float64
	rackOf   []int // server index -> rack index
	zoneOf   []int // server index -> zone index
	// zoneServers lists server indexes per zone (rebuilt on reorder), so
	// zone-scoped control loops avoid O(N) scans.
	zoneServers [][]int
	// Each zone's servers as slots, and the zone's shard list over them; a
	// zone has no more shards than its fleet, whose partials the scan uses.
	zoneSlots  [][]int32
	zoneShards [][]par.Range
	tripped    int
	attached   bool
	// Shard bodies of the trip scan and the sample fill, bound once in
	// NewDataCenter so a fan-out allocates no closure, and the trip scan's
	// per-call inputs.
	scanFn    func(int, par.Range)
	fillFn    func(int, par.Range)
	scanNow   time.Duration
	scanInlet float64
	scanList  []int32
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
		cfg:    cfg,
		engine: e,
		fleet:  fleet,
		topo:   topo,
		room:   room,
		rackOf: make([]int, nServers),
		zoneOf: make([]int, nServers),
	}
	dc.scanFn = dc.scanShard
	dc.fillFn = dc.fillShard
	for i := range fleet.Servers() {
		rack := i / cfg.ServersPerRack
		dc.rackOf[i] = rack
		dc.zoneOf[i] = cfg.ZoneOfRack[rack]
	}
	// One load closure per rack reading the fleet's maintained per-rack
	// sum — the power tree no longer fans out to N per-server closures.
	if err := fleet.SetPowerGroups(dc.rackOf, dc.zoneOf, len(topo.Racks), room.Zones()); err != nil {
		return nil, err
	}
	for r := range topo.Racks {
		r := r // capture for the load closure
		topo.Racks[r].AddLoad(func() float64 { return fleet.RackPowerW(r) })
	}
	dc.rebuildZoneIndex()
	e.Register(topo)
	if cfg.SampleEvery > 0 {
		dc.store, err = telemetry.NewStore(telemetry.DefaultConfig())
		if err != nil {
			return nil, err
		}
		keys := make([]string, 0, 2*nServers+room.Zones())
		for i := 0; i < nServers; i++ {
			keys = append(keys, fmt.Sprintf("srv%04d/power", i), fmt.Sprintf("srv%04d/util", i))
		}
		for z := 0; z < room.Zones(); z++ {
			keys = append(keys, fmt.Sprintf("zone%02d/inlet", z))
		}
		dc.frames, err = dc.store.Frames(keys)
		if err != nil {
			return nil, err
		}
		dc.frameBuf = par.AlignedFloats(len(keys))
	}
	return dc, nil
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
// sampling was enabled). Column layout: server i's power and utilization
// occupy columns 2i and 2i+1; zone z's inlet temperature is column
// 2*Fleet().Size()+z (see ZoneInletColumn). Live exporters read the
// open row through FrameWriter.LatestInto instead of re-aggregating.
func (dc *DataCenter) Frames() *telemetry.FrameWriter { return dc.frames }

// ZoneInletColumn reports the frame column holding zone z's inlet
// temperature.
func (dc *DataCenter) ZoneInletColumn(z int) int { return 2*dc.fleet.Size() + z }

// SampleEvery reports the telemetry sampling period (0 when disabled).
func (dc *DataCenter) SampleEvery() time.Duration { return dc.cfg.SampleEvery }

// ZoneOfServer reports the cooling zone of server i.
func (dc *DataCenter) ZoneOfServer(i int) int { return dc.zoneOf[i] }

// RackOfServer reports the power-tree rack of server i (indices track the
// fleet's current activation order).
func (dc *DataCenter) RackOfServer(i int) int { return dc.rackOf[i] }

// ServersInZone returns the indexes of servers in zone z. The slice is
// the data center's precomputed index (rebuilt on reorder): do not
// mutate.
func (dc *DataCenter) ServersInZone(z int) []int { return dc.zoneServers[z] }

// rebuildZoneIndex recomputes the zone→servers index (by activation
// position and by slot) and the per-zone shard lists from the current
// order-indexed zone map.
func (dc *DataCenter) rebuildZoneIndex() {
	if dc.zoneServers == nil {
		dc.zoneServers = make([][]int, dc.room.Zones())
		dc.zoneSlots = make([][]int32, dc.room.Zones())
		dc.zoneShards = make([][]par.Range, dc.room.Zones())
	}
	for z := range dc.zoneServers {
		dc.zoneServers[z] = dc.zoneServers[z][:0]
		dc.zoneSlots[z] = dc.zoneSlots[z][:0]
	}
	for i, z := range dc.zoneOf {
		dc.zoneServers[z] = append(dc.zoneServers[z], i)
		dc.zoneSlots[z] = append(dc.zoneSlots[z], dc.fleet.slotOfPos[i])
	}
	for z, list := range dc.zoneServers {
		// Shards depend only on the zone's size, so the scan's float
		// grouping — and therefore every downstream bit — is the same for
		// every worker count.
		dc.zoneShards[z] = par.Shards(len(list))
	}
}

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
	// temperatures (and protective trips, §2.2) out. Zone heat comes from
	// the fleet's maintained per-zone sums and the trip scan only enters
	// server-holding zones whose inlet exceeds the servers' trip threshold
	// (one config for the whole fleet), so the steady-state tick is
	// O(zones), not O(servers).
	handles = append(handles, dc.engine.Every(dc.room.PhysicsTick(), func(e *sim.Engine) {
		now := e.Now()
		for z := 0; z < dc.room.Zones(); z++ {
			if err := dc.room.SetZoneHeat(z, dc.fleet.ZonePowerW(z)); err != nil {
				panic(fmt.Sprintf("core: zone heat: %v", err)) // zones validated at construction
			}
		}
		for z, slots := range dc.zoneSlots {
			inlet := dc.room.ZoneInletC(z)
			if len(slots) == 0 || inlet <= dc.cfg.ServerConfig.TripTempC {
				continue
			}
			dc.tripped += dc.scanZone(now, inlet, z)
		}
	}))

	if dc.store != nil {
		handles = append(handles, dc.engine.Every(dc.cfg.SampleEvery, func(e *sim.Engine) {
			dc.sample(e.Now())
		}))
	}
	return handles, nil
}

// scanZone is the trip scan for hot zone z, fanned out over the zone's
// shard list. Each shard reports the inlet to its slots, which may trip
// them, folding the deltas — trips included — into the shard's partial
// sums, merged in shard order afterwards.
func (dc *DataCenter) scanZone(now time.Duration, inlet float64, z int) int {
	f := dc.fleet
	dc.scanNow, dc.scanInlet, dc.scanList = now, inlet, dc.zoneSlots[z]
	f.pool.RunRanges(dc.zoneShards[z], dc.scanFn)
	total := 0
	for sh := range dc.zoneShards[z] {
		total += f.acc[sh].sums.Trips
	}
	f.mergeShards()
	return total
}

// scanShard is scanZone's body over one shard of the zone's slot list.
func (dc *DataCenter) scanShard(sh int, r par.Range) {
	f := dc.fleet
	f.block.ObserveInlets(&f.acc[sh].sums, dc.scanNow, dc.scanList[r.Lo:r.Hi], dc.scanInlet)
}

// sample pushes one telemetry round into the store as a single columnar
// frame append. Power is piecewise-constant between events, so no
// per-server Sync is needed to read it; the fleet's running sums are
// rebased here periodically to shed incremental float drift. The
// per-server columns fill per fleet shard — pure slot-local reads into
// disjoint frame columns. AppendPar copies the round into the frame's
// raw band; when the pyramid levels must catch up on the pending rounds,
// it fans their column folds out over the fleet's pool by column shard.
// MaybeRebase stays strictly serial, once per round, after the append.
func (dc *DataCenter) sample(now time.Duration) {
	f := dc.fleet
	f.pool.RunRanges(f.shards, dc.fillFn)
	base := 2 * f.Size()
	for z := 0; z < dc.room.Zones(); z++ {
		dc.frameBuf[base+z] = dc.room.ZoneInletC(z)
	}
	if err := dc.frames.AppendPar(now, dc.frameBuf, f.pool); err != nil {
		panic(fmt.Sprintf("core: telemetry: %v", err)) // single writer, monotone time
	}
	f.MaybeRebase()
}

// fillShard is sample's body over one fleet shard: copy each server's
// power and utilization columns into its two frame columns.
func (dc *DataCenter) fillShard(_ int, r par.Range) {
	f := dc.fleet
	for i := r.Lo; i < r.Hi; i++ {
		slot := int(f.slotOfPos[i])
		dc.frameBuf[2*i] = f.block.PowerAt(slot)
		dc.frameBuf[2*i+1] = f.block.UtilizationAt(slot)
	}
}

// PreferCoolingSensitiveZones reorders the fleet so servers in zones the
// CRACs regulate well activate first and shed last — the mechanism behind
// avoiding the §5.1 migration hazard (keep load where the cooling can see
// it). Call before the manager starts.
func (dc *DataCenter) PreferCoolingSensitiveZones() error {
	idx := make([]int, dc.fleet.Size())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return dc.room.ZoneSensitivity(dc.zoneOf[idx[a]]) >
			dc.room.ZoneSensitivity(dc.zoneOf[idx[b]])
	})
	if err := dc.fleet.Reorder(idx); err != nil {
		return err
	}
	zoneOf := make([]int, len(dc.zoneOf))
	rackOf := make([]int, len(dc.rackOf))
	for i, p := range idx {
		zoneOf[i] = dc.zoneOf[p]
		rackOf[i] = dc.rackOf[p]
	}
	dc.zoneOf, dc.rackOf = zoneOf, rackOf
	dc.rebuildZoneIndex()
	return nil
}

// Trips reports protective shutdowns observed through the coupling loop.
func (dc *DataCenter) Trips() int { return dc.tripped }

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
