// Command dcsim runs a configurable elastic-power-management simulation:
// a server fleet under one of the five policy modes, driven by a diurnal
// demand, optionally embedded in a full facility (power tree + cooling)
// so PUE and thermal effects are reported too.
//
// Batch mode runs the horizon flat-out and prints a summary:
//
//	dcsim -mode coordinated -fleet 40 -days 3
//	dcsim -mode oblivious -fleet 40 -days 3 -csv samples.csv
//	dcsim -mode coordinated -facility -days 2
//	dcsim -sites 4 -fleet 40 -days 1          # geo-federation: one facility per site
//	                                          # behind the epoch-synchronized router
//
// Live mode (-serve) paces the same simulation against the wall clock
// and serves it over HTTP — OpenMetrics at /metrics, JSON at
// /api/v1/snapshot, SSE at /api/v1/stream:
//
//	dcsim -serve -facility -speedup 600 -listen 127.0.0.1:8080
//
// Same seed, same horizon, same flags ⇒ the live run's telemetry is
// byte-identical to the batch run's: the pacer only slices the event
// kernel's Run calls, which is outcome-neutral.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/carbon"
	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/onoff"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dcsim:", err)
		os.Exit(1)
	}
}

func parseMode(s string) (core.PolicyMode, error) {
	switch s {
	case "always-on":
		return core.ModeAlwaysOn, nil
	case "onoff-only":
		return core.ModeOnOffOnly, nil
	case "dvfs-only":
		return core.ModeDVFSOnly, nil
	case "oblivious":
		return core.ModeOblivious, nil
	case "coordinated":
		return core.ModeCoordinated, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (always-on|onoff-only|dvfs-only|oblivious|coordinated)", s)
	}
}

// parseRetry maps the -retry flag to a client retry policy; "none"
// disables the closed loop.
func parseRetry(s string) (workload.RetryPolicy, bool, error) {
	switch s {
	case "", "none":
		return 0, false, nil
	case "naive":
		return workload.RetryNaive, true, nil
	case "backoff":
		return workload.RetryBackoff, true, nil
	case "budget":
		return workload.RetryBudget, true, nil
	default:
		return 0, false, fmt.Errorf("unknown retry policy %q (none|naive|backoff|budget)", s)
	}
}

// options carries the parsed command line.
type options struct {
	modeStr     string
	fleet       int
	days        int
	seed        int64
	slaMS       int
	minFrac     float64
	maxFrac     float64
	csvPath     string
	facility    bool
	users       bool
	retryStr    string
	serveMode   bool
	listen      string
	speedup     float64
	carbonBase  float64
	carbonSwing float64
	workers     int
	sites       int
	// set names the flags the command line gave explicitly.
	set map[string]bool
}

// maxDays is the longest -days whose horizon a time.Duration holds.
const maxDays = int(math.MaxInt64 / int64(24*time.Hour))

// maxSLA is the longest -sla whose delay-trigger threshold, computed as
// SLA·6/10, a time.Duration holds.
const maxSLA = int(math.MaxInt64 / int64(6*time.Millisecond))

// validate collects every flag violation into one error, so a user with
// three bad flags fixes all three after one run instead of playing
// whack-a-mole. Float checks are written so that NaN fails them.
func (o options) validate() error {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if _, err := parseMode(o.modeStr); err != nil {
		bad("-mode: %v", err)
	}
	if o.fleet <= 0 {
		bad("-fleet %d must be positive", o.fleet)
	}
	if o.days <= 0 {
		bad("-days %d must be positive", o.days)
	} else if o.days > maxDays {
		bad("-days %d must be at most %d (a longer horizon overflows the simulated clock)", o.days, maxDays)
	}
	if o.slaMS <= 0 {
		bad("-sla %d must be positive", o.slaMS)
	} else if o.slaMS > maxSLA {
		bad("-sla %d must be at most %d (a longer target overflows the delay trigger)", o.slaMS, maxSLA)
	}
	if !(o.minFrac >= 0) {
		bad("-min-load %v must be non-negative", o.minFrac)
	}
	if !(o.maxFrac <= 1) {
		bad("-max-load %v must be at most 1", o.maxFrac)
	}
	if !(o.minFrac < o.maxFrac) {
		bad("-min-load %v must be below -max-load %v", o.minFrac, o.maxFrac)
	}
	if !(o.speedup > 0) || math.IsInf(o.speedup, 1) {
		bad("-speedup %v must be positive and finite", o.speedup)
	}
	if o.serveMode && o.csvPath != "" {
		bad("-csv is not supported with -serve (samples are written when a batch run ends)")
	}
	if !o.serveMode && o.set["speedup"] {
		bad("-speedup %v is not supported without -serve (batch runs are not paced)", o.speedup)
	}
	if !o.serveMode && o.set["listen"] {
		bad("-listen %q is not supported without -serve (batch runs serve nothing)", o.listen)
	}
	if !o.serveMode && o.sites == 0 && o.set["carbon"] {
		bad("-carbon %v is not supported in a single-site batch run (only -serve and -sites report carbon)", o.carbonBase)
	}
	if !o.serveMode && o.sites == 0 && o.set["carbon-swing"] {
		bad("-carbon-swing %v is not supported in a single-site batch run (only -serve and -sites report carbon)", o.carbonSwing)
	}
	if _, enabled, err := parseRetry(o.retryStr); err != nil {
		bad("-retry: %v", err)
	} else if enabled && !o.users && o.sites == 0 {
		// Federated sites always run admission control, so -retry stands
		// alone there; the single-site path needs -users to front the
		// fleet with it first.
		bad("-retry %q needs -users (retries close the loop around admission control)", o.retryStr)
	}
	if err := o.carbonModel().Validate(); err != nil {
		bad("-carbon/-carbon-swing: %v", err)
	}
	if o.workers < 0 || o.workers > par.MaxShards {
		// No shard list has more than par.MaxShards shards, so wider
		// pools only idle, and each worker is a goroutine started up front.
		bad("-workers %d must be between 0 and %d", o.workers, par.MaxShards)
	}
	if o.sites != 0 && o.sites < 2 {
		bad("-sites %d must be at least 2 (0 = single site)", o.sites)
	}
	if o.sites == 0 && o.facility && o.fleet%serversPerRack != 0 {
		bad("-facility needs -fleet %d divisible by %d servers per rack", o.fleet, serversPerRack)
	}
	if o.sites != 0 {
		if o.csvPath != "" {
			bad("-csv is not supported with -sites (per-decision samples are single-manager)")
		}
		if o.modeStr != "coordinated" {
			bad("-mode %q is not supported with -sites (federated sites run coordinated managers)", o.modeStr)
		}
		if o.set["sla"] {
			bad("-sla %d is not supported with -sites (federated sites use a 100 ms SLA)", o.slaMS)
		}
		if o.set["min-load"] {
			bad("-min-load %v is not supported with -sites (demand comes from the federation's global trace)", o.minFrac)
		}
		if o.set["max-load"] {
			bad("-max-load %v is not supported with -sites (demand comes from the federation's global trace)", o.maxFrac)
		}
		if o.set["users"] {
			bad("-users is not supported with -sites (federated sites always run admission control)")
		}
		if o.facility && o.fleet%20 != 0 {
			bad("-facility with -sites needs -fleet %d divisible by 20 racks", o.fleet)
		}
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("invalid flags:\n  - %s", strings.Join(problems, "\n  - "))
}

func (o options) carbonModel() carbon.Model {
	return carbon.Model{BaseGPerKWh: o.carbonBase, Swing: o.carbonSwing}
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args, os.Stderr)
	if err != nil {
		return err
	}
	return o.execute(stdout)
}

// parseFlags parses and validates the command line, and resolves
// -workers 0 to GOMAXPROCS, at most par.MaxShards, for both the
// single-site and the federated path. It builds and runs nothing, so any
// argument vector is safe to pass. The flag set's usage and parse
// errors go to stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("dcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.modeStr, "mode", "coordinated", "policy mode")
	fs.IntVar(&o.fleet, "fleet", 40, "fleet size")
	fs.IntVar(&o.days, "days", 3, "simulated days")
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed")
	fs.IntVar(&o.slaMS, "sla", 100, "SLA response target (ms)")
	fs.Float64Var(&o.minFrac, "min-load", 0.15, "night demand as fraction of fleet capacity")
	fs.Float64Var(&o.maxFrac, "max-load", 0.50, "day demand as fraction of fleet capacity")
	fs.StringVar(&o.csvPath, "csv", "", "write per-decision samples to this CSV file")
	fs.BoolVar(&o.facility, "facility", false, "embed the fleet in a full facility (power tree + cooling)")
	fs.BoolVar(&o.users, "users", false, "run request-level admission control and report user outcomes")
	fs.StringVar(&o.retryStr, "retry", "none", "client retry policy around admission control (none|naive|backoff|budget); needs -users")
	fs.BoolVar(&o.serveMode, "serve", false, "serve the live simulation over HTTP instead of batch-running")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "listen address for -serve")
	fs.Float64Var(&o.speedup, "speedup", 60, "virtual seconds per wall second for -serve")
	fs.Float64Var(&o.carbonBase, "carbon", carbon.DefaultGridGPerKWh, "grid carbon intensity base (gCO2e/kWh)")
	fs.Float64Var(&o.carbonSwing, "carbon-swing", 0.2, "diurnal carbon intensity swing fraction [0,1)")
	fs.IntVar(&o.workers, "workers", 0, fmt.Sprintf("worker count for the sharded per-tick loops (0 = GOMAXPROCS, 1 = serial, at most %d; any value gives identical results)", par.MaxShards))
	fs.IntVar(&o.sites, "sites", 0, "federated-site count (0 = single site; ≥2 runs one facility per site behind the epoch-synchronized global router)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		// The flag package stops at the first non-flag argument, so any
		// flag after it would be silently ignored.
		return options{}, fmt.Errorf("unexpected argument %q (dcsim takes flags only)", fs.Arg(0))
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if err := o.validate(); err != nil {
		return options{}, err
	}
	if o.workers == 0 {
		o.workers = min(runtime.GOMAXPROCS(0), par.MaxShards)
	}
	return o, nil
}

// execute runs the simulation o describes, batch or served, single-site
// or federated. o must come from parseFlags.
func (o options) execute(stdout io.Writer) error {
	if o.sites >= 2 {
		return runGeo(o, stdout)
	}
	mode, _ := parseMode(o.modeStr)
	pool := par.New(o.workers)
	defer pool.Close()

	srvCfg := server.DefaultConfig()
	e := sim.NewEngine(o.seed)
	demand := func(now time.Duration) float64 {
		h := now.Hours() - 24*float64(int(now.Hours()/24))
		frac := o.minFrac + (o.maxFrac-o.minFrac)*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
		return frac * float64(o.fleet) * srvCfg.Capacity
	}
	mgrCfg := core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      o.fleet,
		Queue:          workload.DefaultQueueModel(),
		SLA:            time.Duration(o.slaMS) * time.Millisecond,
		DecisionPeriod: time.Minute,
		Mode:           mode,
		DVFSTarget:     0.8,
		Trigger: onoff.DelayTrigger{
			High:   time.Duration(o.slaMS) * time.Millisecond * 6 / 10,
			Low:    time.Duration(o.slaMS) * time.Millisecond / 4,
			StepUp: 1, StepDown: 1, Min: 1, Max: o.fleet,
		},
		InitialOn: o.fleet / 2,
		Record:    o.csvPath != "",
		Pool:      pool,
	}
	if o.users {
		// Front dispatch with request-level admission: the diurnal
		// demand curve becomes per-class user arrivals (default mix),
		// and only what admission grants reaches the fleet.
		adm, err := workload.NewAdmission(workload.DefaultAdmissionConfig())
		if err != nil {
			return err
		}
		classes := workload.DefaultRequestClasses()
		mix := workload.DefaultClassMix()
		if policy, enabled, _ := parseRetry(o.retryStr); enabled {
			// Close the loop: turned-away users come back under the
			// chosen policy, with the circuit breaker armed.
			rcfg := workload.DefaultRetryConfig(policy)
			rcfg.Breaker = workload.DefaultBreakerConfig()
			rl, err := workload.NewRetryLoop(rcfg, adm, e.RNG().Fork("retry"))
			if err != nil {
				return err
			}
			mgrCfg.Retry = rl
		} else {
			mgrCfg.Admission = adm
		}
		mgrCfg.ClassDemand = func(now time.Duration) [workload.NumClasses]float64 {
			erl := demand(now) / srvCfg.Capacity
			var shares, fresh [workload.NumClasses]float64
			mix.Split(erl, &shares)
			for c := range fresh {
				rate := shares[c] / classes[c].ServiceTime.Seconds()
				fresh[c] = workload.UsersPerTick(rate, mgrCfg.DecisionPeriod)
			}
			return fresh
		}
	}

	var dc *core.DataCenter
	var mgr *core.Manager
	var err error
	if o.facility {
		dc, mgr, err = buildFacility(e, srvCfg, mgrCfg, demand)
		if err != nil {
			return err
		}
	} else {
		mgr, err = core.NewManager(e, mgrCfg, demand)
		if err != nil {
			return err
		}
	}
	mgr.Start()

	horizon := time.Duration(o.days) * 24 * time.Hour
	if o.serveMode {
		srv, err := serve.NewServer(serve.Source{Engine: e, Fleet: mgr.Fleet(), Manager: mgr, DC: dc}, serve.Options{
			Speedup: o.speedup,
			Horizon: horizon,
			Carbon:  o.carbonModel(),
		})
		if err != nil {
			return err
		}
		return serveLive(srv, o.listen, fmt.Sprintf("mode=%s fleet=%d", o.modeStr, o.fleet), stdout, func() (float64, string) {
			snap := srv.Snapshot()
			return snap.SimTimeSeconds, fmt.Sprintf("%d events, %.2f kWh, %.0f gCO2e",
				snap.EventsProcessed, snap.EnergyJoules/3.6e6, snap.Carbon.GramsTotal)
		})
	}

	var pueSum float64
	var pueN int
	if dc != nil {
		e.Every(15*time.Minute, func(*sim.Engine) {
			if pue, _, err := dc.PUEAt(core.PUEOutsideC, core.PUEOutsideRH); err == nil {
				pueSum += pue
				pueN++
			}
		})
	}

	if err := e.Run(horizon); err != nil {
		return err
	}
	res := mgr.Result(horizon)

	fmt.Fprintf(stdout, "mode=%s fleet=%d days=%d seed=%d\n", res.Mode, o.fleet, o.days, o.seed)
	fmt.Fprintf(stdout, "IT energy:        %.2f kWh\n", res.EnergyKWh)
	fmt.Fprintf(stdout, "mean active:      %.1f servers\n", res.MeanActive)
	fmt.Fprintf(stdout, "power switches:   %d on, %d off\n", res.SwitchOns, res.SwitchOffs)
	fmt.Fprintf(stdout, "SLA violations:   %.2f%% of decisions (worst %v)\n",
		res.SLAViolationRate*100, res.WorstResponse.Round(time.Millisecond))
	fmt.Fprintf(stdout, "dropped load:     %.3f%%\n", res.DroppedFraction*100)
	if dc != nil && pueN > 0 {
		fmt.Fprintf(stdout, "mean PUE:         %.2f\n", pueSum/float64(pueN))
		fmt.Fprintf(stdout, "thermal trips:    %d\n", dc.Trips())
	}
	if u := res.Users; u != nil {
		fmt.Fprintf(stdout, "users offered:    %.0f\n", u.Offered)
		fmt.Fprintf(stdout, "users admitted:   %.0f (%.0f degraded)\n", u.Admitted, u.Degraded)
		fmt.Fprintf(stdout, "users rejected:   %.0f (+%.0f deferred)\n", u.Rejected, u.DeferredBacklog)
		for c := 0; c < workload.NumClasses; c++ {
			fmt.Fprintf(stdout, "SLO misses %-12s %.2f%% of active ticks\n",
				workload.Class(c).String()+":", u.SLOMissRate[c]*100)
		}
		if rl := mgr.Retry(); rl != nil {
			fmt.Fprintf(stdout, "users retried:    %.0f (amplification %.2fx)\n", u.Retried, u.RetryAmplification)
			fmt.Fprintf(stdout, "users abandoned:  %.0f (goodput %.0f)\n", u.Abandoned, u.Goodput)
			fmt.Fprintf(stdout, "breaker:          %s (%d trips)\n", rl.State(), u.BreakerTrips)
		}
	}

	if o.csvPath != "" {
		var b strings.Builder
		b.WriteString("seconds,offered,active,pstate,power_w,response_ms,dropped\n")
		for _, s := range res.Samples {
			fmt.Fprintf(&b, "%d,%.1f,%d,%d,%.1f,%.2f,%.1f\n",
				int64(s.At.Seconds()), s.Offered, s.Active, s.PState,
				s.PowerW, float64(s.Response)/float64(time.Millisecond), s.Dropped)
		}
		if err := os.WriteFile(o.csvPath, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", o.csvPath)
	}
	return nil
}

// liveServer is what serveLive drives: a serve.Server or a
// serve.GeoServer.
type liveServer interface {
	Options() serve.Options
	Handler() http.Handler
	Run(ctx context.Context) error
	Shutdown()
}

// serveLive serves srv over HTTP on listen and paces it against the
// wall clock until the horizon is reached or the process gets
// SIGINT/SIGTERM. It prints the bound address with about, which names
// what is served, and once drained a closing line with the virtual time
// reached and the tally that stopped reports.
func serveLive(srv liveServer, listen, about string, stdout io.Writer, stopped func() (simSeconds float64, tally string)) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	opts := srv.Options()
	fmt.Fprintf(stdout, "dcsim: serving on http://%s (%s speedup=%gx horizon=%s)\n",
		ln.Addr(), about, opts.Speedup, opts.Horizon)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()

	paceErr := srv.Run(ctx)

	// Drain order matters: first end the SSE streams (each subscriber
	// gets a final shutdown event and its handler returns), then let the
	// HTTP server wait out in-flight scrapes within the grace window.
	srv.Shutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutdownCtx)

	select {
	case err := <-httpErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	default:
	}
	if paceErr != nil && !errors.Is(paceErr, context.Canceled) {
		return paceErr
	}
	sim, tally := stopped()
	fmt.Fprintf(stdout, "dcsim: stopped at sim time %s (%s)\n",
		time.Duration(sim*float64(time.Second)).Round(time.Second), tally)
	return nil
}

// serversPerRack is the rack size of the single-site facility; validate
// requires -fleet to fill whole racks.
const serversPerRack = 10

// buildFacility wraps the managed fleet in a power tree and cooling room
// sized for the fleet.
func buildFacility(e *sim.Engine, srvCfg server.Config, mgrCfg core.ManagerConfig, demand core.DemandFunc) (*core.DataCenter, *core.Manager, error) {
	racks := mgrCfg.FleetSize / serversPerRack
	// One zone per pair of racks, at least one.
	zones := (racks + 1) / 2
	roomCfg := cooling.RoomConfig{PhysicsTick: cooling.DefaultPhysicsTick}
	for z := 0; z < zones; z++ {
		roomCfg.Zones = append(roomCfg.Zones, cooling.DefaultZone(fmt.Sprintf("z%d", z)))
		roomCfg.Sensitivity = append(roomCfg.Sensitivity, []float64{0.9})
	}
	roomCfg.CRACs = []cooling.CRACConfig{cooling.DefaultCRAC("c0")}
	zoneOfRack := make([]int, racks)
	for r := range zoneOfRack {
		zoneOfRack[r] = r / 2
	}
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 50 * float64(mgrCfg.FleetSize) // ~17 % of peak IT

	dcCfg := core.DataCenterConfig{
		Name:           "dcsim",
		ServerConfig:   srvCfg,
		ServersPerRack: serversPerRack,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: racks,
			RackRatedW: float64(serversPerRack) * srvCfg.PeakPower * 1.1, Oversubscription: 1,
		},
		Room:        roomCfg,
		ZoneOfRack:  zoneOfRack,
		Plant:       plant,
		SampleEvery: 15 * time.Second,
		Pool:        mgrCfg.Pool,
	}
	dc, err := core.NewDataCenter(e, dcCfg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := dc.Attach(); err != nil {
		return nil, nil, err
	}
	mgrCfg.FleetSize = dc.Fleet().Size()
	mgrCfg.Trigger.Max = dc.Fleet().Size()
	mgr, err := core.NewManagerForFleet(e, mgrCfg, dc.Fleet(), demand)
	if err != nil {
		return nil, nil, err
	}
	return dc, mgr, nil
}
