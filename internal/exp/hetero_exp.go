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
// hetero — heterogeneous CMP power curves (§4.1)
// ---------------------------------------------------------------------------

// HeteroResult compares homogeneous and big.LITTLE servers on the same
// diurnal day — "heterogeneous CMPs has further potentials to selectively
// use cores with different power and performance trade-offs to meet
// workload variation" (§4.1).
type HeteroResult struct {
	HomogeneousKWh float64
	BigLittleKWh   float64
	Saving         float64
	// LightLoadSaving is the instantaneous power saving at 30 % load.
	LightLoadSaving float64
}

// ID implements Result.
func (HeteroResult) ID() string { return "hetero" }

// Report implements Result.
func (r HeteroResult) Report() string {
	var b strings.Builder
	b.WriteString(header("hetero", "heterogeneous CMP power/performance trade-offs (§4.1)"))
	fmt.Fprintf(&b, "one diurnal day, 10 servers: homogeneous %.2f kWh, big.LITTLE %.2f kWh (%.0f%% saved)\n",
		r.HomogeneousKWh, r.BigLittleKWh, r.Saving*100)
	fmt.Fprintf(&b, "instantaneous dynamic-power saving at 30%% load: %.0f%%\n", r.LightLoadSaving*100)
	b.WriteString("savings concentrate at light load, where efficient cores carry the work\n")
	return b.String()
}

// RunHetero runs both fleets through the same day.
func RunHetero(env *Env) (Result, error) {
	seed := env.Seed
	const n = 10
	demandFrac := func(now time.Duration) float64 {
		h := math.Mod(now.Hours(), 24)
		return 0.15 + 0.45*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
	}
	runFleet := func(curve []server.CurvePoint) (float64, error) {
		e := env.NewEngine(seed)
		cfg := server.DefaultConfig()
		cfg.PowerCurve = curve
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
			frac := demandFrac(eng.Now())
			for _, s := range servers {
				s.SetUtilization(eng.Now(), frac)
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

	homo, err := runFleet(nil)
	if err != nil {
		return nil, err
	}
	het, err := runFleet(server.BigLittleCurve())
	if err != nil {
		return nil, err
	}

	// Instantaneous dynamic saving at 30 % load, straight from the model.
	cfg := server.DefaultConfig()
	idle := cfg.PeakPower * cfg.IdleFraction
	dyn := cfg.PeakPower - idle
	homoDyn := dyn * 0.3
	// On BigLittleCurve, u=0.3 sits between (0,0) and (0.4,0.15):
	// fraction 0.1125 of full dynamic power.
	hetDyn := dyn * 0.1125

	res := HeteroResult{
		HomogeneousKWh: homo,
		BigLittleKWh:   het,
	}
	if homo > 0 {
		res.Saving = 1 - het/homo
	}
	if homoDyn > 0 {
		res.LightLoadSaving = 1 - hetDyn/homoDyn
	}
	return res, nil
}
