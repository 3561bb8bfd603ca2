// Coolingaware: reproduce the paper's §5.1 CRAC-sensitivity scenario.
// One CRAC regulates zone A tightly and zone B poorly. Migrating all load
// from A to B and shutting A down convinces the CRAC the room is cold; it
// relaxes the supply air while B overheats toward protective shutdown.
// A sensitivity-aware placement keeps the load where the cooling can see
// it.
//
//	go run ./examples/coolingaware
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cooling"
	"repro/internal/server"
	"repro/internal/sim"
)

const perZone = 100

func main() {
	fmt.Println("scenario: zone A sensitivity 0.85, zone B 0.35, one CRAC (paper §5.1)")
	naiveB, naiveTrips, supplyRise := run(true)
	awareMax, awareTrips, _ := run(false)

	fmt.Printf("\nnaive migration (all load A->B, A off):\n")
	fmt.Printf("  CRAC relaxed supply by %.1f degC after zone A cooled\n", supplyRise)
	fmt.Printf("  zone B inlet peaked at %.1f degC -> %d protective shutdowns\n", naiveB, naiveTrips)
	fmt.Printf("\nsensitivity-aware placement (load stays in zone A):\n")
	fmt.Printf("  hottest inlet %.1f degC, %d shutdowns\n", awareMax, awareTrips)
}

// run simulates 12 hours; when migrate is true the load moves to zone B
// at t=4h and zone A powers off.
func run(migrate bool) (maxInletB float64, trips int, supplyRise float64) {
	e := sim.NewEngine(11)
	room, err := cooling.TwoZoneRoom(0.85, 0.35)
	if err != nil {
		log.Fatal(err)
	}
	room.Attach(e)

	cfg := server.DefaultConfig()
	cfg.Name, cfg.TripTempC = "srv", 33
	b, err := server.NewBlock(cfg, 2*perZone)
	if err != nil {
		log.Fatal(err)
	}
	servers := b.Servers()
	for _, s := range servers {
		s.PowerOn(e)
	}
	if err := e.Run(2 * time.Minute); err != nil {
		log.Fatal(err)
	}
	for i, s := range servers {
		if i < perZone {
			s.SetUtilization(e.Now(), 0.9) // zone A busy
		} else {
			s.SetUtilization(e.Now(), 0.1) // zone B light
		}
	}

	supplyBefore := 0.0
	e.Every(room.PhysicsTick(), func(eng *sim.Engine) {
		now := eng.Now()
		var heatA, heatB float64
		for i, s := range servers {
			s.Sync(now)
			if i < perZone {
				heatA += s.Power()
			} else {
				heatB += s.Power()
			}
		}
		_ = room.SetZoneHeat(0, heatA)
		_ = room.SetZoneHeat(1, heatB)
		for i, s := range servers {
			zone := i / perZone
			if s.ObserveInlet(now, room.ZoneInletC(zone)) {
				trips++
			}
		}
		if b := room.ZoneInletC(1); b > maxInletB {
			maxInletB = b
		}
		if a := room.ZoneInletC(0); a > maxInletB && !migrate {
			maxInletB = a // for the aware case report the hottest zone
		}
	})
	e.ScheduleAt(4*time.Hour, func(eng *sim.Engine) {
		supplyBefore = room.CRACSetpointC(0)
		if !migrate {
			return
		}
		now := eng.Now()
		for i, s := range servers {
			if i < perZone {
				s.SetUtilization(now, 0)
				s.PowerOff(eng)
			} else {
				s.SetUtilization(now, 0.95)
			}
		}
	})
	if err := e.Run(12 * time.Hour); err != nil {
		log.Fatal(err)
	}
	return maxInletB, trips, room.CRACSetpointC(0) - supplyBefore
}
