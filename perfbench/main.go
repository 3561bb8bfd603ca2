// Command perfbench is the repository's benchmark. It builds each
// workload through the simulator's public constructors, times its own
// calls into each layer, reads the counters the layers export, checks
// that the simulated outputs are correct, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// benchmark alternates untraced and traced reps and reports the
// per-layer set. See README.md in this directory.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported on
// every workload with tracing off. BENCHMARK.json at the repository root
// lists the same names and units (the smoke test checks it).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// workloadExtras are end-to-end metrics that exist on some workloads
// only. They are printed in the human-readable table and written to the
// results file, not gated (see README.md).
var workloadExtras = []metricDef{
	{"wall_raw_s", "s"},
	{"steal_frac", "ratio"},
	{"srv_h_per_s", "srv-h/s"},
	{"ops_failed_frac", "ratio"},
	{"scrape_p50_ms", "ms"},
	{"scrape_p99_ms", "ms"},
	{"scrape_samples", "count"},
	{"scrape_gen_late_ms", "ms"},
}

// perLayer are the traced run's metrics. Every workload reports every
// name; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.peak_pending", "count"},
		{"sim.self_s", "s"},
		{"sim.uncounted_exps", "count"},
		{"core.manager_s", "s"},
		{"core.decisions", "count"},
		{"core.switches", "count"},
		{"core.physics_s", "s"},
		{"core.trips", "count"},
		{"core.sample_s", "s"},
		{"core.rebases", "count"},
		{"cooling.room_s", "s"},
		{"power.enforce_s", "s"},
		{"power.pue_s", "s"},
		{"telemetry.raw_points", "count"},
		{"telemetry.agg_buckets", "count"},
		{"telemetry.dropped_raw", "count"},
		{"runtime.alloc_objects", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_s", "s"},
		{"workload.retry_ticks", "count"},
		{"workload.goodput_frac", "ratio"},
		{"workload.retry_amplification", "ratio"},
		{"workload.breaker_trips", "count"},
		{"workload.rejected_frac", "ratio"},
		{"geo.epochs", "count"},
		{"geo.epoch_p50_ms", "ms"},
		{"geo.epoch_p99_ms", "ms"},
		{"geo.site_event_skew", "ratio"},
		{"serve.advance_p50_ms", "ms"},
		{"serve.advance_p99_ms", "ms"},
		{"serve.render_metrics_ms", "ms"},
		{"serve.render_snapshot_ms", "ms"},
		{"serve.scrape_bytes", "B"},
		{"serve.sse_frames", "count"},
		{"trace.overhead_s", "s"},
	}
	for _, id := range suiteIDs() {
		defs = append(defs, metricDef{"exp." + id + ".s", "s"})
	}
	return defs
}()

// spanMetrics maps per-layer timing metrics to the spans they sum.
var spanMetrics = map[string]string{
	"core.manager_s":  "core.manager",
	"core.physics_s":  "core.physics",
	"core.sample_s":   "core.sample",
	"cooling.room_s":  "cooling.room",
	"power.enforce_s": "power.enforce",
	"power.pue_s":     "power.pue",
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name, why string
	// rep runs one rep: set-up, the fixed span, and the checks. tr is
	// nil on untraced reps; root is the rep's span.
	rep func(o options, seed int64, tr *tracer, root int) repResult
	// check, when set, runs once per invocation before the reps: an
	// untimed correctness check too costly to repeat every rep. It
	// counts as one operation and returns the problems it found.
	check func(o options, seed int64) []string
}

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	root     string // repository root (for golden fixtures and metadata)
	out      string // directory for result and span files ("" = none)
	toy      bool   // smoke-test sizes
}

func workloads() []workloadDef {
	return []workloadDef{
		{name: "facility-100k", rep: facilityRep,
			why: "one 100k-server facility above the shard cutoff: dispatch, trip scan and telemetry sampling dominate; no request stack"},
		{name: "geo-storm-4x10k", rep: geoRep, check: geoArmedCheck,
			why: "four fleet-only 10k sites with admission, budget retry and breaker, one capacity dip: retry feedback, barrier and router dominate"},
		{name: "suite", rep: suiteRep,
			why: "all 38 experiments at scale 1, serially with invariants armed: the serial fold and every substrate package"},
		{name: "serve-10k", rep: serveRep,
			why: "the live server on a 10k facility with admission and retry, paced back to back while an open-loop client scrapes"},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fl.Int64Var(&o.seed, "seed", 1, "input seed (seed 1 also compares the suite with the golden fixtures)")
	fl.Float64Var(&o.seconds, "seconds", 10, "measure for this many host seconds per workload")
	fl.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fl.StringVar(&o.root, "root", ".", "repository root")
	fl.StringVar(&o.out, "out", "", "directory for the results and span JSON files")
	fl.BoolVar(&o.toy, "toy", false, "run at smoke-test sizes")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", o.trace)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	if _, err := os.Stat(filepath.Join(o.root, "internal", "exp", "testdata", "golden")); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s is not the repository root: %v\n", o.root, err)
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads() {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	var final *result
	if len(selected) > 1 {
		var err error
		if final, err = runEach(selected, args, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		meta := hostMeta(o)
		metaJSON, _ := json.Marshal(meta)
		fmt.Fprintf(stdout, "host %s\n", metaJSON)
		var err error
		if final, err = measure(selected[0], o, meta, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", selected[0].name, err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childEnv marks a process this program started to measure one workload.
// A test binary re-executing itself checks it to run the benchmark
// instead of its tests.
const childEnv = "PERFBENCH_CHILD=1"

// runEach measures every workload in a process of its own, so each one's
// peak resident set is its own, and folds the results into one line. A
// child's output is passed through except its result line.
func runEach(ws []workloadDef, args []string, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*result
	for _, w := range ws {
		var out strings.Builder
		// A repeated flag takes its last value.
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Env = append(os.Environ(), childEnv)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %v", w.name, err)
		}
		body := strings.TrimRight(out.String(), "\n")
		i := strings.LastIndexByte(body, '\n')
		var res result
		if err := json.Unmarshal([]byte(body[i+1:]), &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %v", w.name, err)
		}
		if i >= 0 {
			fmt.Fprintln(stdout, body[:i])
		}
		results = append(results, &res)
	}
	return combine(ws, results), nil
}

// combine folds per-workload results into one line, prefixing each
// metric with its workload.
func combine(ws []workloadDef, rs []*result) *result {
	out := &result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			out.Metrics[ws[i].name+"/"+k] = v
		}
	}
	return out
}

// measure runs reps of one workload until the time budget is spent,
// checks them against each other, prints the human-readable tables, and
// returns the result line.
func measure(w workloadDef, o options, meta map[string]any, stdout io.Writer) (*result, error) {
	runID := fmt.Sprintf("%s-seed%d-trace%d-%d", w.name, o.seed, o.trace, time.Now().UnixNano())
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer(runID)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	minReps := 3
	if o.trace == 1 {
		minReps = 4 // two untraced, two traced
	}
	var checkProblems []string
	if w.check != nil {
		checkProblems = w.check(o, o.seed)
	}
	// Rep 0 warms the process up (heap growth, page faults, lazily built
	// tables): it is checked like every rep, but its timings are dropped.
	// The measured reps then run until the budget is spent.
	var reps []repResult
	var traced []bool
	var start time.Time
	for i := 0; i <= minReps || time.Since(start) < budget; i++ {
		if i == 1 {
			start = time.Now()
		}
		// Start every rep from a collected heap so one rep's garbage is
		// not charged to the next.
		runtime.GC()
		isTraced := o.trace == 1 && i > 0 && i%2 == 0
		var rt *tracer
		root := -1
		first := 0
		if isTraced {
			rt = tr
			first = len(tr.spans)
			root = tr.begin("rep", -1)
		}
		ticks := readCPUTicks()
		r := w.rep(o, o.seed, rt, root)
		r.steal = ticks.stealSince()
		if isTraced {
			tr.end(root)
			stats := layerStats(tr.spans, first)
			if r.layers == nil {
				r.layers = map[string]float64{}
			}
			r.layers["sim.self_s"] = selfOf(stats, "sim.run")
			for m, s := range spanMetrics {
				r.layers[m] = totalOf(stats, s)
			}
			for _, st := range stats {
				if strings.HasPrefix(st.Name, "exp.") {
					r.layers[st.Name+".s"] = st.Total
				}
			}
		}
		reps = append(reps, r)
		traced = append(traced, isTraced)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	problems := checkProblems
	if w.check != nil {
		res.Attempted++
		if len(checkProblems) > 0 {
			res.Failed++
		}
	}
	var walls, rawWalls, steals, tracedWalls, setups, allocs []float64
	var srvHours float64
	var scrapeMS, lateMS []float64
	var notes []string
	layers := map[string][]float64{}
	workers := 0
	for i, r := range reps {
		res.Attempted += r.ops
		res.Failed += r.failed
		problems = append(problems, r.problems...)
		notes = append(notes, r.notes...)
		if r.digest != reps[0].digest {
			res.Failed++
			problems = append(problems, fmt.Sprintf("rep %d digest %s differs from rep 0 digest %s at the same seed (traced=%v)", i, r.digest, reps[0].digest, traced[i]))
		}
		workers = r.workers
		if i == 0 {
			continue // warm-up
		}
		// Times are net of steal: the share of the rep's demanded CPU
		// time that the hypervisor gave to other guests.
		net := 1 - r.steal
		setups = append(setups, r.setup.Seconds()*net)
		if traced[i] {
			tracedWalls = append(tracedWalls, r.wall.Seconds()*net)
			for k, v := range r.layers {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		walls = append(walls, r.wall.Seconds()*net)
		rawWalls = append(rawWalls, r.wall.Seconds())
		steals = append(steals, r.steal)
		allocs = append(allocs, float64(r.mem.allocBytes)/1e6)
		srvHours = r.srvHours
		scrapeMS = append(scrapeMS, r.scrapeMS...)
		lateMS = append(lateMS, r.lateMS...)
	}
	res.Correct = res.Failed == 0
	wall := median(walls)
	e2e := map[string]float64{
		"wall_s":      wall,
		"alloc_mb":    median(allocs),
		"peak_rss_mb": peakRSSMB(),
		"setup_s":     median(setups),
	}
	all := map[string]float64{
		"wall_raw_s":      median(rawWalls),
		"steal_frac":      median(steals),
		"ops_failed_frac": float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	for k, v := range e2e {
		all[k] = v
	}
	if srvHours > 0 {
		all["srv_h_per_s"] = srvHours / wall
	}
	if len(scrapeMS) > 0 {
		all["scrape_p50_ms"] = quantile(scrapeMS, 0.5)
		all["scrape_p99_ms"] = quantile(scrapeMS, 0.99)
		all["scrape_samples"] = float64(len(scrapeMS))
		all["scrape_gen_late_ms"] = quantile(lateMS, 0.99)
	}

	fmt.Fprintf(stdout, "== %s  seed=%d  reps=%d (traced %d)  workers=%d  digest=%s\n",
		w.name, o.seed, len(reps), len(tracedWalls), workers, reps[0].digest)
	for _, p := range problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	for _, n := range notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	fmt.Fprintf(stdout, "rep wall_s (untraced, net of steal) %.4f\n", walls)
	for _, d := range append(append([]metricDef(nil), endToEnd...), workloadExtras...) {
		if v, ok := all[d.name]; ok {
			fmt.Fprintf(stdout, "%-22s %16.6g %s\n", d.name, v, d.unit)
		}
	}

	layerOut := map[string]float64{}
	if o.trace == 1 {
		for _, d := range perLayer {
			layerOut[d.name] = median(layers[d.name])
			if len(layers[d.name]) == 0 {
				layerOut[d.name] = 0
			}
		}
		layerOut["trace.overhead_s"] = median(tracedWalls) - wall
		stats := layerStats(tr.spans, 0)
		fmt.Fprintf(stdout, "-- spans over %d traced reps (run id %s)\n", len(tracedWalls), runID)
		printLayerTable(stdout, stats)
		for _, d := range perLayer {
			if v := layerOut[d.name]; v != 0 {
				fmt.Fprintf(stdout, "%-30s %16.6f %s\n", d.name, v, d.unit)
			}
		}
	}

	if o.trace == 0 {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{e2e[d.name], d.unit}
		}
	} else {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{layerOut[d.name], d.unit}
		}
	}
	if o.out != "" {
		if err := writeOutputs(o.out, runID, w.name, meta, workers, reps[0].digest, all, layerOut, res, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeOutputs writes the run's results, and on traced runs its spans,
// as JSON under dir.
func writeOutputs(dir, runID, name string, meta map[string]any, workers int, digest string,
	e2e, layers map[string]float64, res *result, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"run_id":   runID,
		"workload": name,
		"host":     meta,
		"workers":  workers,
		"digest":   digest,
		"metrics":  e2e,
		"result":   res,
	}
	if tr != nil {
		doc["per_layer"] = layers
		doc["layers"] = layerStats(tr.spans, 0)
		spans, err := json.Marshal(map[string]any{"run_id": tr.runID, "spans": tr.spans})
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, runID+"-spans.json"), spans, 0o644); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, runID+".json"), data, 0o644)
}

// hostMeta records what a parallel number needs next to it: core count,
// GOMAXPROCS, toolchain, CPU model, and the commit measured.
func hostMeta(o options) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commitID(o.root),
		"seed":       o.seed,
		"workload":   o.workload,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitID reports the git commit of root, or — in a checkout without
// git metadata — a hash of the simulator's Go sources, prefixed "tree:".
func commitID(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	for _, dir := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
