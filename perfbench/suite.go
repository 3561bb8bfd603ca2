package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/exp"
)

// suiteIDs lists the registered experiments.
func suiteIDs() []string { return exp.IDs() }

// suiteToyIDs is the smoke test's subset: cheap experiments covering the
// figure, fault, request-level, retry and geo families.
var suiteToyIDs = []string{"fig1", "idle60", "tier2", "users-qmin", "geo"}

// uncountedExps build engines outside exp.Env.NewEngine (geo federations,
// the telemetry ingest, the request-level and retry runners), so the
// harness probe reports 0 events for them although they run the kernel.
// Their event counts are reported as uncounted, not as zero. (The other
// experiments the probe reports 0 for are trace-analytic and fire no
// events.)
var uncountedExps = map[string]bool{
	"geo-diurnal": true, "geo-brownout": true, "geo-carbon": true,
	"telemetry":   true,
	"users-flash": true, "users-qmin": true,
	"retry-storm": true, "retry-budget": true,
}

// goldenRelTol matches internal/exp's golden test tolerance.
const goldenRelTol = 1e-6

// The suite's set-up takes about a microsecond, too short for one timing
// to be steady: a rep times suiteSetupReps batches of suiteSetupBatch
// set-ups each and reports the median batch's time per set-up.
const (
	suiteSetupReps  = 15
	suiteSetupBatch = 100
)

func suiteRep(o options, seed int64, tr *tracer, root int) repResult {
	ids := suiteIDs()
	if o.toy {
		ids = suiteToyIDs
	}
	return runSuite(ids, o.root, seed, tr, root)
}

// runSuite is one rep of the suite workload: every experiment at scale
// 1, serially, through exp.RunEnv with invariants armed (the default of
// cmd/experiments). Its set-up is building one run environment with its
// worker pool; the golden fixtures are the benchmark's own and are read
// once per invocation, outside every timed section.
func runSuite(ids []string, repoRoot string, seed int64, tr *tracer, root int) repResult {
	var r repResult
	var golden map[string]map[string]float64
	if seed == 1 {
		var err error
		if golden, err = loadGoldens(repoRoot); err != nil {
			r.fail("golden fixtures: %v", err)
			return r
		}
	}
	setupSpan := tr.begin("setup", root)
	var setups []float64
	for i := 0; i < suiteSetupReps; i++ {
		t0 := time.Now()
		for j := 0; j < suiteSetupBatch; j++ {
			env := exp.NewEnv(seed)
			r.workers = env.Pool().Workers()
			env.Close()
		}
		setups = append(setups, time.Since(t0).Seconds()/suiteSetupBatch)
	}
	r.setup = time.Duration(median(setups) * float64(time.Second))
	tr.end(setupSpan)

	var d digest
	var events uint64
	uncounted := 0
	mark := markMem()
	runSpan := tr.begin("suite.run", root)
	t0 := time.Now()
	for _, id := range ids {
		r.ops++
		env := exp.NewEnv(seed)
		s := tr.begin("exp."+id, runSpan)
		res, err := exp.RunEnv(id, env)
		tr.end(s)
		st := env.Stats()
		env.Close()
		if err != nil {
			r.fail("%s: %v", id, err)
			continue
		}
		if uncountedExps[id] {
			uncounted++
		} else {
			events += st.Processed
		}
		m := exp.Metrics(res)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			d.add(id+"."+k, m[k])
		}
		if seed == 1 {
			if diffs := compareGolden(m, golden[id]); len(diffs) > 0 {
				r.fail("%s: golden mismatch: %v", id, diffs)
			}
		}
	}
	r.wall = time.Since(t0)
	tr.end(runSpan)
	r.mem = mark.since()
	r.digest = d.sum()
	r.layers = map[string]float64{
		"sim.events":            float64(events),
		"sim.events_per_s":      float64(events) / r.wall.Seconds(),
		"sim.uncounted_exps":    float64(uncounted),
		"runtime.alloc_objects": float64(r.mem.allocObjects),
		"runtime.gc_cycles":     float64(r.mem.gcCycles),
		"runtime.gc_cpu_s":      r.mem.gcCPU,
	}
	return r
}

// goldens caches the fixtures per repository root, so one invocation
// reads them once.
var goldens = map[string]map[string]map[string]float64{}

// loadGoldens reads the fixtures internal/exp pins at seed 1, one per
// registered experiment.
func loadGoldens(repoRoot string) (map[string]map[string]float64, error) {
	if g, ok := goldens[repoRoot]; ok {
		return g, nil
	}
	ids := suiteIDs()
	out := make(map[string]map[string]float64, len(ids))
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(repoRoot, "internal", "exp", "testdata", "golden", id+".json"))
		if err != nil {
			return nil, err
		}
		var m map[string]float64
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out[id] = m
	}
	goldens[repoRoot] = out
	return out, nil
}

// compareGolden lists the metrics of got that differ from want beyond
// the golden tolerance, plus any metric present on one side only.
func compareGolden(got, want map[string]float64) []string {
	var diffs []string
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			diffs = append(diffs, k+": missing")
		case !withinRelTol(g, w, goldenRelTol):
			diffs = append(diffs, fmt.Sprintf("%s: got %v want %v", k, g, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, k+": not in fixture")
		}
	}
	sort.Strings(diffs)
	return diffs
}

func withinRelTol(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))+1e-12
}
