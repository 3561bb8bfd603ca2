// Package harness runs (experiment × seed-replication) jobs on a par.Pool
// and aggregates the replications into per-experiment summaries. The
// paper's MRM layer (Figure 4) makes claims about stochastic workloads;
// one run per claim is anecdote, so the harness fans every experiment out
// over several seeds and reports mean / min / max / stddev per metric.
//
// Determinism is preserved bit-for-bit: each job constructs its own
// exp.Env (and therefore its own engines) from its seed, and no state is
// shared between jobs, so a job's result is a pure function of
// (experiment id, seed) regardless of worker count or scheduling order.
// Each job is one index range on the pool, the same executor that runs
// the fleets' shard loops, and writes only its own result slot.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/exp"
	"repro/internal/par"
	"repro/internal/stats"
)

// Config describes one harness invocation.
type Config struct {
	// IDs are the experiments to run, in the order given. Empty means
	// every registered experiment in sorted-id order.
	IDs []string
	// BaseSeed is the first replication's seed; replication r runs with
	// seed BaseSeed+r, so -reps 1 reproduces the single-seed run exactly.
	BaseSeed int64
	// Reps is the number of seed replications per experiment (min 1).
	Reps int
	// Parallel is the worker count (min 1; 0 means GOMAXPROCS). Run
	// never starts more workers than it has jobs.
	Parallel int
	// DisarmInvariants turns off the runtime physical-law checker that
	// every job otherwise runs with (see internal/invariant). The zero
	// value keeps invariants armed.
	DisarmInvariants bool
	// Scale multiplies the facility size of the fig4-family experiments
	// (see exp.Env.Scale). 0 or 1 is the paper's scale.
	Scale int
	// Workers is each job's intra-run execution width for the sharded
	// per-tick loops (see exp.Env.Workers): 0 means GOMAXPROCS, 1 forces
	// inline execution. Orthogonal to Parallel (jobs run concurrently
	// either way) and irrelevant to results, which depend only on
	// (id, seed, scale).
	Workers int
	// Sites sets the federated-site count of the geo-family experiments
	// (see exp.Env.Sites): 0 means each experiment's default of 4.
	// Unlike Workers this changes the scenario, so golden comparisons
	// hold only at the default.
	Sites int
}

// normalize applies the documented defaults.
func (c Config) normalize() Config {
	if len(c.IDs) == 0 {
		c.IDs = exp.IDs()
	}
	if c.Reps < 1 {
		c.Reps = 1
	}
	if c.Parallel < 1 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	return c
}

// JobResult is the instrumented outcome of one (experiment, seed) job.
type JobResult struct {
	ID   string `json:"id"`
	Seed int64  `json:"seed"`
	Rep  int    `json:"rep"`
	// Err is the job's error, empty on success.
	Err string `json:"err,omitempty"`
	// WallSeconds is the real time the job took.
	WallSeconds float64 `json:"wall_seconds"`
	// Events is the number of kernel events fired across every engine
	// the job constructed.
	Events uint64 `json:"events"`
	// EventsPerSec is Events / WallSeconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// PeakPending is the largest event-queue depth any engine reached.
	PeakPending int `json:"peak_pending"`
	// Engines is how many engines the job constructed.
	Engines int `json:"engines"`

	// Result is the experiment's typed outcome (nil on error). It is
	// excluded from the JSON sidecar; Report below carries the text.
	Result exp.Result `json:"-"`
	// Report is the experiment's human-readable report.
	Report string `json:"-"`
}

// Summary aggregates one experiment's replications.
type Summary struct {
	ID   string      `json:"id"`
	Reps []JobResult `json:"reps"`
	// Wall, Events, Throughput and PeakPending summarize the successful
	// replications (seconds, events, events/sec, queue depth).
	Wall        stats.Desc `json:"wall_seconds"`
	Events      stats.Desc `json:"events"`
	Throughput  stats.Desc `json:"events_per_sec"`
	PeakPending stats.Desc `json:"peak_pending"`
	// Errors collects per-replication failures, if any.
	Errors []string `json:"errors,omitempty"`
}

// Run executes cfg's (experiment × replication) jobs on a par.Pool of
// cfg.Parallel workers and returns one Summary per experiment, in
// cfg.IDs order. Job errors do not abort other jobs; they are recorded
// in the summaries and joined into the returned error.
func Run(cfg Config) ([]Summary, error) {
	cfg = cfg.normalize()
	// Job i runs experiment cfg.IDs[i/Reps] at replication i%Reps. Each
	// job is a one-index range on a pool no wider than the job list, and
	// writes only its preallocated result slot, so output order is
	// deterministic whatever order the workers claim jobs in.
	results := make([]JobResult, len(cfg.IDs)*cfg.Reps)
	units := make([]par.Range, len(results))
	for i := range units {
		units[i] = par.Range{Lo: i, Hi: i + 1}
	}
	pool := par.New(min(cfg.Parallel, len(units)))
	pool.RunRanges(units, func(i int, _ par.Range) {
		rep := i % cfg.Reps
		results[i] = runJob(cfg.IDs[i/cfg.Reps], cfg.BaseSeed+int64(rep), rep, cfg)
	})
	pool.Close()

	// Jobs were laid out replication-major per experiment, so each
	// experiment's replications are the contiguous block
	// results[k*Reps : (k+1)*Reps] — slice it instead of rebuilding a
	// map of appended copies.
	byID := make(map[string][]JobResult, len(cfg.IDs))
	for k, id := range cfg.IDs {
		// Full slice expression: a duplicated id appends into a fresh
		// array instead of growing over the neighbouring block.
		block := results[k*cfg.Reps : (k+1)*cfg.Reps : (k+1)*cfg.Reps]
		if prev, ok := byID[id]; ok {
			byID[id] = append(append(make([]JobResult, 0, len(prev)+len(block)), prev...), block...)
		} else {
			byID[id] = block
		}
	}
	summaries := make([]Summary, 0, len(cfg.IDs))
	var errs []error
	for _, id := range cfg.IDs {
		reps := byID[id]
		sort.Slice(reps, func(a, b int) bool { return reps[a].Rep < reps[b].Rep })
		s := summarize(id, reps)
		for _, e := range s.Errors {
			errs = append(errs, fmt.Errorf("%s: %s", id, e))
		}
		summaries = append(summaries, s)
	}
	return summaries, errors.Join(errs...)
}

// runJob executes one (experiment, seed) pair in a fresh environment and
// captures the instrumentation the engines accumulated.
func runJob(id string, seed int64, rep int, cfg Config) JobResult {
	env := exp.NewEnv(seed)
	env.Scale = cfg.Scale
	env.Workers = cfg.Workers
	env.Sites = cfg.Sites
	defer env.Close()
	if cfg.DisarmInvariants {
		env.DisarmInvariants()
	}
	start := time.Now()
	res, err := exp.RunEnv(id, env)
	wall := time.Since(start)
	jr := JobResult{
		ID:          id,
		Seed:        seed,
		Rep:         rep,
		WallSeconds: wall.Seconds(),
	}
	ks := env.Stats()
	jr.Events = ks.Processed
	jr.PeakPending = ks.PeakPending
	jr.Engines = ks.Engines
	if jr.WallSeconds > 0 {
		jr.EventsPerSec = float64(jr.Events) / jr.WallSeconds
	}
	if err != nil {
		jr.Err = err.Error()
		return jr
	}
	jr.Result = res
	jr.Report = res.Report()
	return jr
}

// summarize folds one experiment's replications into aggregates. The
// metric buffers are sized up front — one allocation each, no append
// growth.
func summarize(id string, reps []JobResult) Summary {
	s := Summary{ID: id, Reps: reps}
	wall := make([]float64, 0, len(reps))
	events := make([]float64, 0, len(reps))
	rate := make([]float64, 0, len(reps))
	peak := make([]float64, 0, len(reps))
	for _, r := range reps {
		if r.Err != "" {
			s.Errors = append(s.Errors, fmt.Sprintf("seed %d: %s", r.Seed, r.Err))
			continue
		}
		wall = append(wall, r.WallSeconds)
		events = append(events, float64(r.Events))
		rate = append(rate, r.EventsPerSec)
		peak = append(peak, float64(r.PeakPending))
	}
	// An all-failed experiment legitimately has empty aggregates.
	s.Wall, _ = stats.Describe(wall)
	s.Events, _ = stats.Describe(events)
	s.Throughput, _ = stats.Describe(rate)
	s.PeakPending, _ = stats.Describe(peak)
	return s
}

// Table renders the summaries as an aligned human-readable table: one row
// per experiment with wall-time and kernel-throughput aggregates over its
// replications.
func Table(summaries []Summary) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "experiment\treps\twall mean\twall sd\twall [min,max]\tevents\tevents/s\tpeak queue\terrors")
	for _, s := range summaries {
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t[%s, %s]\t%.0f\t%.0f\t%.0f\t%d\n",
			s.ID, len(s.Reps),
			fmtSec(s.Wall.Mean), fmtSec(s.Wall.StdDev),
			fmtSec(s.Wall.Min), fmtSec(s.Wall.Max),
			s.Events.Mean, s.Throughput.Mean, s.PeakPending.Max,
			len(s.Errors))
	}
	w.Flush()
	return b.String()
}

// fmtSec renders a duration in seconds compactly for the table.
func fmtSec(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(100 * time.Microsecond).String()
}
