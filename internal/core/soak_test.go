package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/onoff"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRebaseDriftSoak runs a 200-server facility under the coordinated
// manager for 30 simulated days, on a diurnal demand between 15% and 50%
// of capacity, as `dcsim -facility -fleet 200 -days 30` does. At every day
// boundary it reads the fleet's rebase drift and verifies its aggregates,
// both read-only, so the run is the one an unobserved run takes: the
// aggregates must verify, and the lifetime drift must stay within the
// tolerance VerifyAggregates allows at the exact power of the day's last
// rebase. Over the run the fleet must rebase at least once per
// rebaseEvery sample rounds.
func TestRebaseDriftSoak(t *testing.T) {
	const (
		fleet   = 200
		perRack = 10
		days    = 30
		relTol  = 1e-7 // VerifyAggregates' tolerances
		absTol  = 1e-6
	)
	srvCfg := server.DefaultConfig()
	racks := fleet / perRack
	zones := (racks + 1) / 2
	room := cooling.RoomConfig{PhysicsTick: cooling.DefaultPhysicsTick}
	for z := 0; z < zones; z++ {
		room.Zones = append(room.Zones, cooling.DefaultZone(fmt.Sprintf("z%d", z)))
		room.Sensitivity = append(room.Sensitivity, []float64{0.9})
	}
	room.CRACs = []cooling.CRACConfig{cooling.DefaultCRAC("c0")}
	zoneOfRack := make([]int, racks)
	for r := range zoneOfRack {
		zoneOfRack[r] = r / 2
	}
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 50 * fleet
	e := sim.NewEngine(1)
	dc, err := NewDataCenter(e, DataCenterConfig{
		Name:           "soak",
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: racks,
			RackRatedW: perRack * srvCfg.PeakPower * 1.1, Oversubscription: 1,
		},
		Room:        room,
		ZoneOfRack:  zoneOfRack,
		Plant:       plant,
		SampleEvery: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Attach(); err != nil {
		t.Fatal(err)
	}
	demand := func(now time.Duration) float64 {
		h := math.Mod(now.Hours(), 24)
		return (0.15 + 0.35*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))) * fleet * srvCfg.Capacity
	}
	mgr, err := NewManagerForFleet(e, ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      fleet,
		Queue:          workload.DefaultQueueModel(),
		SLA:            100 * time.Millisecond,
		DecisionPeriod: time.Minute,
		Mode:           ModeCoordinated,
		DVFSTarget:     0.8,
		Trigger: onoff.DelayTrigger{
			High: 60 * time.Millisecond, Low: 25 * time.Millisecond,
			StepUp: 1, StepDown: 1, Min: 1, Max: fleet,
		},
		InitialOn: fleet / 2,
	}, dc.Fleet(), demand)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()

	f := dc.Fleet()
	rebases0 := f.Rebases()
	var log strings.Builder
	fmt.Fprintf(&log, "day  last drift W   lifetime max W   exact W at rebase\n")
	for day := 1; day <= days; day++ {
		if err := e.Run(time.Duration(day) * 24 * time.Hour); err != nil {
			t.Fatal(err)
		}
		lastW, maxW := f.RebaseDrift()
		fmt.Fprintf(&log, "%3d  %12.3g  %15.3g  %17.6g\n", day, lastW, maxW, f.lastRebaseRefW)
		if err := f.VerifyAggregates(); err != nil {
			t.Fatalf("day %d: %v\n%s", day, err, log.String())
		}
		if tol := relTol*f.lastRebaseRefW + absTol; maxW > tol {
			t.Fatalf("day %d: lifetime drift %v W beyond the %v W VerifyAggregates allows\n%s", day, maxW, tol, log.String())
		}
	}
	rounds := days * 24 * int(time.Hour/(15*time.Second))
	if got := f.Rebases() - rebases0; got < rounds/rebaseEvery {
		t.Fatalf("%d rebases over %d sample rounds, want at least %d\n%s", got, rounds, rounds/rebaseEvery, log.String())
	}
	if ons, offs := f.Switches(); ons == 0 || offs == 0 {
		t.Fatalf("the fleet never switched (%d on, %d off)\n%s", ons, offs, log.String())
	}
}
