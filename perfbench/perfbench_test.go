package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the benchmark instead of the tests when the test binary
// is started as a per-workload child (see runEach).
func TestMain(m *testing.M) {
	if k, v, _ := strings.Cut(childEnv, "="); os.Getenv(k) == v {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at toy sizes, untraced and traced, and
// checks that each passes its correctness checks and reports exactly the
// metric names and units BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"-toy", "-root", "..", "-seconds", "0.01", "-trace", trace, "-workload", w.name}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				res := lastResult(t, out.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
				// The human-readable table names every end-to-end metric
				// with its unit.
				for _, d := range endToEnd {
					if !strings.Contains(out.String(), d.name) {
						t.Errorf("table lacks %s", d.name)
					}
				}
				if trace == "0" {
					for _, d := range endToEnd {
						if !(res.Metrics[d.name].Value > 0) {
							t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestAllMatchesSingle: `-workload all` measures each workload in a
// process of its own, so its peak resident set agrees with a run of that
// workload alone rather than carrying an earlier workload's peak.
func TestAllMatchesSingle(t *testing.T) {
	args := []string{"-toy", "-root", "..", "-seconds", "0.01", "-trace", "0"}
	var out, errOut bytes.Buffer
	if code := run(append(args, "-workload", "all"), &out, &errOut); code != 0 {
		t.Fatalf("all: exit %d: %s", code, errOut.String())
	}
	all := lastResult(t, out.String())
	if !all.Correct {
		t.Fatalf("all: not correct\n%s", out.String())
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		cmd := exec.Command(exe, append(args, "-workload", w.name)...)
		cmd.Env = append(os.Environ(), childEnv)
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		single := lastResult(t, string(stdout)).Metrics["peak_rss_mb"].Value
		inAll := all.Metrics[w.name+"/peak_rss_mb"].Value
		if !(math.Abs(inAll-single) <= 0.2*single) {
			t.Errorf("%s: peak_rss_mb %v in all, %v alone", w.name, inAll, single)
		}
	}
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload declarations in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
		Why  string `json:"why"`
	}
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// TestRefusesOutsideRepository: run from a directory without the
// simulator's sources, the benchmark fails without printing a result.
func TestRefusesOutsideRepository(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-root", t.TempDir(), "-toy", "-workload", "suite"}, &out, &errOut); code == 0 {
		t.Fatal("run succeeded outside the repository")
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q", out.String())
	}
}

// TestSelfTime checks that parallel children are counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "epoch", Parent: -1, Start: 0, End: 100},
		{Name: "site", Parent: 0, Start: 10, End: 60},
		{Name: "site", Parent: 0, Start: 40, End: 80},
		{Name: "site", Parent: 0, Start: 90, End: 95},
	}
	stats := layerStats(spans, 0)
	if got := selfOf(stats, "epoch"); got != 25e-9 {
		t.Errorf("epoch self = %v, want 25ns", got)
	}
	if got := totalOf(stats, "site"); got != 95e-9 {
		t.Errorf("site total = %v, want 95ns", got)
	}
}
