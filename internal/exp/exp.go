// Package exp contains one runnable experiment per figure and per
// quantitative claim of the paper (the index in DESIGN.md §3). Each
// experiment builds its scenario from the library's substrates, runs it
// deterministically from a seed, and returns a typed result whose Report
// prints the rows/series the paper's figure or claim corresponds to.
// EXPERIMENTS.md records paper-claimed vs measured values per experiment.
package exp

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/invariant"
	"repro/internal/par"
	"repro/internal/sim"
)

// Result is one experiment's outcome.
type Result interface {
	// ID is the experiment identifier (fig1 … tier2).
	ID() string
	// Report renders the human-readable rows for the experiment.
	Report() string
}

// Env is the per-run environment handed to every experiment runner: the
// deterministic seed plus a kernel probe through which the parallel
// harness observes engine-level statistics (events fired, peak queue
// depth). Experiments create engines via Env.NewEngine so the probe sees
// every engine a run constructs; determinism is untouched because the
// engine is still seeded exactly as before.
type Env struct {
	// Seed is the run's deterministic seed.
	Seed int64
	// Scale multiplies the facility size of the fig4-family experiments
	// (servers per rack, rack power ratings, zone airflow, plant fans),
	// so scale runs are reproducible from the CLI. 0 or 1 is the paper's
	// scale and produces byte-identical results to the pre-knob runs.
	Scale int
	// Workers sets the execution width of the sharded per-tick loops:
	// 0 means GOMAXPROCS, 1 forces inline execution. Any value produces
	// identical results — shard structure depends only on fleet size —
	// so the knob trades wall-clock time only.
	Workers int
	// Sites sets the federated-site count of the geo-family experiments
	// (0 → each experiment's default of 4; minimum 2). Unlike Workers,
	// this changes the scenario, so golden comparisons hold only at the
	// default.
	Sites   int
	pool    *par.Pool
	poolSet bool
	// readScale and readSites record whether the run read FleetScale and
	// FederationSites, which TestKnobReaders holds to the registry's
	// lists.
	readScale, readSites bool
	probe                sim.Probe
	// checker asserts physical-law invariants after every event of every
	// engine this run creates. Armed by default; DisarmInvariants turns
	// it off (e.g. for overhead-sensitive benchmarks).
	checker *invariant.Checker
}

// NewEnv builds a run environment for the given seed with invariant
// checking armed.
func NewEnv(seed int64) *Env {
	return &Env{Seed: seed, checker: invariant.NewChecker()}
}

// FederationSites reports the effective federated-site count for the
// geo-family experiments (default 4, minimum 2).
func (v *Env) FederationSites() int {
	v.readSites = true
	if v.Sites >= 2 {
		return v.Sites
	}
	return 4
}

// FleetScale reports the effective facility multiplier (minimum 1).
func (v *Env) FleetScale() int {
	v.readScale = true
	if v.Scale < 1 {
		return 1
	}
	return v.Scale
}

// Pool returns the run's shared worker pool, creating it on first use
// from the Workers knob (nil when the effective width is 1 — inline
// execution). Callers pass it into DataCenterConfig/ManagerConfig; Close
// releases it.
func (v *Env) Pool() *par.Pool {
	if !v.poolSet {
		w := v.Workers
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		v.pool = par.New(w)
		v.poolSet = true
	}
	return v.pool
}

// Close releases the run's worker pool (idempotent; safe when no pool
// was ever created). Pool() after Close would leak, so don't.
func (v *Env) Close() {
	v.pool.Close()
	v.pool = nil
	v.poolSet = true
}

// DisarmInvariants turns off runtime invariant checking for engines
// created after the call.
func (v *Env) DisarmInvariants() { v.checker = nil }

// InvariantsArmed reports whether runtime invariant checking is on.
func (v *Env) InvariantsArmed() bool { return v.checker != nil }

// NewEngine constructs an engine seeded with seed and registers it with
// the run's probe. Experiments that build several engines (e.g. one per
// policy mode) call it once per engine, usually with env.Seed so the
// modes see identical stochastic inputs. When invariants are armed the
// checker rides the engine's after-event hook.
func (v *Env) NewEngine(seed int64) *sim.Engine {
	e := v.probe.Observe(sim.NewEngine(seed))
	if v.checker != nil {
		v.checker.Attach(e)
	}
	return e
}

// Stats snapshots the kernel counters of every engine this run created.
func (v *Env) Stats() sim.Stats { return v.probe.Stats() }

// InvariantErr reports the first named invariant violation observed by
// this run's checker (nil when disarmed or clean).
func (v *Env) InvariantErr() error {
	if v.checker == nil {
		return nil
	}
	return v.checker.Err()
}

// Runner executes an experiment in a run environment.
type Runner func(env *Env) (Result, error)

// registry maps experiment ids to runners. Populated by Register calls
// from each experiment file's declarations (explicit, not init()).
func registry() map[string]Runner {
	return map[string]Runner{
		"fig1":        RunFig1,
		"fig2":        RunFig2,
		"fig3":        RunFig3,
		"fig4":        RunFig4,
		"idle60":      RunIdle60,
		"pue2":        RunPUE2,
		"animoto":     RunAnimoto,
		"oversub":     RunOversub,
		"pathology":   RunPathology,
		"crac":        RunCRAC,
		"consolidate": RunConsolidate,
		"interfere":   RunInterfere,
		"telemetry":   RunTelemetry,
		"sensornet":   RunSensorNet,
		"dvfs":        RunDVFS,
		"tier2":       RunTier2,
		// Extensions: research directions the paper sketches plus
		// ablations of this library's design choices.
		"capping":           RunCapping,
		"tiers":             RunTiers,
		"parking":           RunParking,
		"distributed":       RunDistributed,
		"hetero":            RunHetero,
		"geo":               RunGeo,
		"ablate-dc":         RunAblateDC,
		"ablate-forecast":   RunAblateForecast,
		"ablate-ladder":     RunAblateLadder,
		"ablate-hysteresis": RunAblateHysteresis,
		// Fault-response family: injected failures against the
		// graceful-degradation layer.
		"fault-outage": RunFaultOutage,
		"fault-crac":   RunFaultCRAC,
		"fault-sensor": RunFaultSensor,
		// Request-level family: batched admission control measured by
		// user-visible outcomes (rejections, degradation, SLO misses).
		"users-surge": RunUsersSurge,
		"users-flash": RunUsersFlash,
		"users-qmin":  RunUsersQmin,
		// Metastability family: closed-loop client retries, circuit
		// breaking, and correlated power-domain faults.
		"retry-storm":  RunRetryStorm,
		"retry-budget": RunRetryBudget,
		"fault-rack":   RunFaultRack,
		// Geo-federation: N regional facilities behind the deterministic
		// global router (internal/geo).
		"geo-diurnal":  RunGeoDiurnal,
		"geo-brownout": RunGeoBrownout,
		"geo-carbon":   RunGeoCarbon,
	}
}

// The experiments that read each per-run knob, sorted: FleetScale (the
// Scale field, cmd/experiments' -scale) and FederationSites (Sites,
// -sites). Every other experiment runs the same whatever the knob says.
var (
	fleetScaleIDs      = []string{"fault-crac", "fault-outage", "fault-rack", "fig4", "users-surge"}
	federationSitesIDs = []string{"geo-brownout", "geo-carbon", "geo-diurnal"}
)

// FleetScaleIDs returns the ids of the experiments that read
// Env.FleetScale, sorted.
func FleetScaleIDs() []string { return slices.Clone(fleetScaleIDs) }

// FederationSitesIDs returns the ids of the experiments that read
// Env.FederationSites, sorted.
func FederationSitesIDs() []string { return slices.Clone(federationSitesIDs) }

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	reg := registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	_, ok := registry()[id]
	return ok
}

// Run executes one experiment by id from a seed.
func Run(id string, seed int64) (Result, error) {
	env := NewEnv(seed)
	defer env.Close()
	return RunEnv(id, env)
}

// RunEnv executes one experiment by id in a caller-supplied environment.
// The harness uses this form so it can read env.Stats() afterwards.
func RunEnv(id string, env *Env) (Result, error) {
	r, ok := registry()[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	res, err := r(env)
	if err != nil {
		return res, err
	}
	if verr := env.InvariantErr(); verr != nil {
		return res, fmt.Errorf("exp %s: %w", id, verr)
	}
	return res, nil
}

// header renders a report header line.
func header(id, title string) string {
	return fmt.Sprintf("=== %s — %s ===\n", id, title)
}
