package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Some CPU
BenchmarkSchedule/pending=10000-8         	       1	      1018 ns/op	      24 B/op	       1 allocs/op
BenchmarkSchedule/pending=10000-8         	       1	      1100 ns/op	      24 B/op	       1 allocs/op
BenchmarkRunLargeQueue/events=100000-8    	       1	  16133264 ns/op	   6199024 events/sec	       0 B/op	       0 allocs/op
BenchmarkRunLargeQueue/events=100000-8    	       1	  17000000 ns/op	   6000000 events/sec	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/sim	0.958s
`

func TestParseBenchOutput(t *testing.T) {
	res, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	sched, ok := res["BenchmarkSchedule/pending=10000"]
	if !ok {
		t.Fatalf("missing schedule bench (GOMAXPROCS suffix not stripped?); have %v", res)
	}
	if got := sched["ns/op"]; len(got) != 2 || got[0] != 1018 || got[1] != 1100 {
		t.Errorf("ns/op samples = %v", got)
	}
	if got := sched["allocs/op"]; len(got) != 2 || got[0] != 1 {
		t.Errorf("allocs/op samples = %v", got)
	}
	runq := res["BenchmarkRunLargeQueue/events=100000"]
	if got := runq["events/sec"]; len(got) != 2 || got[0] != 6199024 {
		t.Errorf("events/sec samples = %v", got)
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":          "BenchmarkFoo",
		"BenchmarkFoo/case=1-16":  "BenchmarkFoo/case=1",
		"BenchmarkFoo":            "BenchmarkFoo",
		"BenchmarkFoo/pending=10": "BenchmarkFoo/pending=10",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	if c, hb := classify("allocs/op"); c != classAllocs || hb {
		t.Errorf("allocs/op -> %q %v", c, hb)
	}
	if c, hb := classify("events/sec"); c != classThroughput || !hb {
		t.Errorf("events/sec -> %q %v", c, hb)
	}
	if c, hb := classify("points/min"); c != classThroughput || !hb {
		t.Errorf("points/min -> %q %v", c, hb)
	}
	if c, hb := classify("ns/op"); c != classTime || hb {
		t.Errorf("ns/op -> %q %v", c, hb)
	}
}

func mkResults(allocs, throughput []float64) Results {
	return Results{
		"BenchmarkX": {
			"allocs/op":  allocs,
			"events/sec": throughput,
		},
	}
}

func TestCompareDetectsAllocRegression(t *testing.T) {
	base := mkResults([]float64{100, 100, 101, 100, 100}, []float64{1000, 1001, 999, 1000, 1002})
	cur := mkResults([]float64{150, 151, 150, 150, 152}, []float64{1000, 1001, 999, 1000, 1002})
	report, regs := compare(base, cur, gateSet("allocs,throughput"), 0.15, 0.05)
	if regs != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regs, report)
	}
	if !strings.Contains(report, "REGRESSION") {
		t.Errorf("report missing REGRESSION:\n%s", report)
	}
}

func TestCompareDetectsThroughputRegression(t *testing.T) {
	base := mkResults([]float64{1, 1, 1, 1, 1}, []float64{1000, 1001, 999, 1000, 1002})
	cur := mkResults([]float64{1, 1, 1, 1, 1}, []float64{700, 699, 701, 702, 698})
	_, regs := compare(base, cur, gateSet("allocs,throughput"), 0.15, 0.05)
	if regs != 1 {
		t.Fatalf("regressions = %d, want 1", regs)
	}
	// Higher throughput must NOT be a regression.
	cur2 := mkResults([]float64{1, 1, 1, 1, 1}, []float64{2000, 2001, 1999, 2002, 1998})
	_, regs = compare(base, cur2, gateSet("allocs,throughput"), 0.15, 0.05)
	if regs != 0 {
		t.Fatalf("improvement flagged as regression")
	}
}

func TestCompareInsignificantNoiseDoesNotGate(t *testing.T) {
	// Overlapping samples: a >15% median delta without separation must
	// not fail the gate.
	base := mkResults([]float64{100, 140, 90, 130, 95}, []float64{1, 1, 1, 1, 1})
	cur := mkResults([]float64{130, 95, 145, 100, 135}, []float64{1, 1, 1, 1, 1})
	report, regs := compare(base, cur, gateSet("allocs,throughput"), 0.15, 0.05)
	if regs != 0 {
		t.Fatalf("noise gated as regression:\n%s", report)
	}
}

func TestCompareTimeIsInformational(t *testing.T) {
	base := Results{"BenchmarkX": {"ns/op": {100, 100, 101, 100, 100}}}
	cur := Results{"BenchmarkX": {"ns/op": {300, 301, 300, 299, 300}}}
	report, regs := compare(base, cur, gateSet("allocs,throughput"), 0.15, 0.05)
	if regs != 0 {
		t.Fatalf("ns/op gated: %d regressions\n%s", regs, report)
	}
	if !strings.Contains(report, "informational") {
		t.Errorf("report should mark the worsening informational:\n%s", report)
	}
	// But it gates when asked to.
	_, regs = compare(base, cur, gateSet("time"), 0.15, 0.05)
	if regs != 1 {
		t.Fatalf("time gate did not fire")
	}
}

func TestRunCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f File) string {
		p := filepath.Join(dir, name)
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", File{Benchmarks: mkResults(
		[]float64{100, 100, 100, 100, 100}, []float64{1000, 1000, 1000, 1000, 1000})})
	sameP := write("same.json", File{Benchmarks: mkResults(
		[]float64{100, 100, 100, 100, 100}, []float64{1001, 1000, 999, 1000, 1001})})
	worseP := write("worse.json", File{Benchmarks: mkResults(
		[]float64{200, 200, 201, 200, 200}, []float64{1000, 1000, 1000, 1000, 1000})})

	var out strings.Builder
	if err := run([]string{"-baseline", base, "-candidate", sameP}, &out); err != nil {
		t.Fatalf("clean compare failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no gated regressions") {
		t.Errorf("missing pass line:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-baseline", base, "-candidate", worseP}, &out); err == nil {
		t.Fatalf("regression compare passed:\n%s", out.String())
	}
}

func TestRunWritesOut(t *testing.T) {
	dir := t.TempDir()
	cand := filepath.Join(dir, "c.json")
	data, _ := json.Marshal(File{Benchmarks: mkResults([]float64{1}, []float64{2})})
	if err := os.WriteFile(cand, data, 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.json")
	var out strings.Builder
	if err := run([]string{"-candidate", cand, "-out", outPath}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := loadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 {
		t.Errorf("write and reload kept %d benchmarks, want 1", len(f.Benchmarks))
	}
}
