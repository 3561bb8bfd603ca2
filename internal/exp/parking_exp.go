package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/sim"
)

// ---------------------------------------------------------------------------
// parking — core parking between DVFS and server-off (§4.3)
// ---------------------------------------------------------------------------

// ParkingRow is one strategy's day.
type ParkingRow struct {
	Strategy    string
	EnergyKWh   float64
	SavingVsOff float64 // fraction of the server-off saving captured
}

// ParkingResult compares three ways to handle a half-idle fleet overnight:
// leave servers fully on, park unused cores ("core parking is a technique
// to selectively turn off cores to reduce CPU power consumption"), or turn
// whole servers off ("the most effective and aggressive power saving").
type ParkingResult struct {
	Rows []ParkingRow
}

// ID implements Result.
func (ParkingResult) ID() string { return "parking" }

// Report implements Result.
func (r ParkingResult) Report() string {
	var b strings.Builder
	b.WriteString(header("parking", "core parking sits between DVFS and server-off (§4.3)"))
	b.WriteString("strategy      energy_kWh  of_off_saving%\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s  %10.2f  %14.0f\n", row.Strategy, row.EnergyKWh, row.SavingVsOff*100)
	}
	b.WriteString("ordering check: server-off < core-parking < always-on (paper §4.3)\n")
	return b.String()
}

// RunParking runs a 10-server fleet through a diurnal day under the three
// strategies. Demand is dispatched evenly; the parking strategy parks the
// cores the demand does not need, and the off strategy consolidates onto
// the fewest servers and powers off the rest.
func RunParking(env *Env) (Result, error) {
	seed := env.Seed
	const n = 10
	cfg := server.DefaultConfig()
	demandFrac := func(now time.Duration) float64 {
		h := math.Mod(now.Hours(), 24)
		return 0.15 + 0.45*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
	}

	runStrategy := func(strategy string) (float64, error) {
		e := env.NewEngine(seed)
		b, err := server.NewBlock(cfg, n)
		if err != nil {
			return 0, err
		}
		servers := b.Servers()
		for _, s := range servers {
			s.PowerOn(e)
		}
		if err := e.Run(cfg.BootDelay); err != nil {
			return 0, err
		}
		e.Every(time.Minute, func(eng *sim.Engine) {
			now := eng.Now()
			frac := demandFrac(now)
			offered := frac * n * cfg.Capacity
			switch strategy {
			case "always-on":
				for _, s := range servers {
					s.SetUtilization(now, frac)
				}
			case "core-parking":
				// Every server stays on, spreads the load, and parks
				// the cores headroom allows (keep 1/Cores granularity
				// plus one core of slack).
				for _, s := range servers {
					s.SetUtilization(now, frac)
					needCores := int(math.Ceil(frac*float64(cfg.Cores))) + 1
					if needCores > cfg.Cores {
						needCores = cfg.Cores
					}
					if err := s.ParkCores(now, cfg.Cores-needCores); err != nil {
						panic(err) // bounds guaranteed above
					}
				}
			case "server-off":
				// Keep just enough servers for the load at 90 % target.
				need := int(math.Ceil(offered / (cfg.Capacity * 0.9)))
				if need < 1 {
					need = 1
				}
				if need > n {
					need = n
				}
				for i, s := range servers {
					switch {
					case i < need:
						if s.State() == server.StateOff {
							s.PowerOn(eng)
						}
						if s.State() == server.StateActive {
							s.SetUtilization(now, offered/float64(need)/cfg.Capacity)
						}
					default:
						if s.State() == server.StateActive {
							s.PowerOff(eng)
						}
					}
				}
			}
		})
		horizon := cfg.BootDelay + 24*time.Hour
		if err := e.Run(horizon); err != nil {
			return 0, err
		}
		var joules float64
		for _, s := range servers {
			s.Sync(horizon)
			joules += s.EnergyJ()
		}
		return joules / 3.6e6, nil
	}

	strategies := []string{"always-on", "core-parking", "server-off"}
	energies := make(map[string]float64, len(strategies))
	for _, st := range strategies {
		kwh, err := runStrategy(st)
		if err != nil {
			return nil, err
		}
		energies[st] = kwh
	}
	baseline := energies["always-on"]
	offSaving := baseline - energies["server-off"]
	var res ParkingResult
	for _, st := range strategies {
		row := ParkingRow{Strategy: st, EnergyKWh: energies[st]}
		if offSaving > 0 {
			row.SavingVsOff = (baseline - energies[st]) / offSaving
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
