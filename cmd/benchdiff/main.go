// Command benchdiff runs the repository's benchmark suite, emits the
// results as machine-readable JSON, and statistically compares two sets
// of results. It is the benchmark-regression gate: a significant
// worsening beyond the threshold in a gated metric fails the run.
//
//	benchdiff -base-rev HEAD                           # HEAD vs the working tree, interleaved on this host
//	benchdiff -out results.json                        # run and record
//	benchdiff -baseline old.json                       # run + compare against a file
//	benchdiff -baseline old.json -candidate new.json   # compare two files, no run
//
// With -base-rev, the reference is the same benchmarks built from a git
// revision: the revision is checked out with git worktree into a
// temporary directory, each package's test binary is built once per
// side, and the two sides run interleaved, -count rounds, alternating
// which goes first, so both meet the same host and the same load. A
// gate against numbers recorded on another host, or on another day,
// compares hosts, not code.
//
// Metrics are classified by unit: allocs/op, B/op and ns/op are
// lower-is-better; units containing "/sec" or "/min" (events/sec,
// points/min) are throughput, higher-is-better. Which classes fail the
// run is chosen with -gate (default "allocs,throughput"); ns/op is
// always informational because wall time on shared runners is noise.
// Significance is a two-sided Mann–Whitney U test (the same test
// benchstat applies), so a single noisy run cannot fail the gate.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/stats"
)

// Results maps benchmark name -> metric unit -> samples (one per -count
// run).
type Results map[string]map[string][]float64

// File is the JSON document benchdiff reads and writes.
type File struct {
	GoVersion  string  `json:"go_version,omitempty"`
	Benchtime  string  `json:"benchtime,omitempty"`
	Count      int     `json:"count,omitempty"`
	Benchmarks Results `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	bench := fs.String("bench", ".", "benchmark regex passed to go test -bench")
	packages := fs.String("packages", "./...", "comma-separated package patterns to bench")
	count := fs.Int("count", 5, "runs per benchmark (samples for the significance test)")
	benchtime := fs.String("benchtime", "1x", "go test -benchtime value")
	short := fs.Bool("short", false, "pass -short to go test (skips the 10k/100k scale tiers)")
	outFile := fs.String("out", "", "write this run's results JSON to this file")
	baseRev := fs.String("base-rev", "", "compare against the benchmarks built at this git revision, run interleaved with the working tree's; exit 1 on gated regressions")
	baseline := fs.String("baseline", "", "compare against this baseline JSON; exit 1 on gated regressions")
	candidate := fs.String("candidate", "", "compare this results JSON instead of running the benchmarks")
	gate := fs.String("gate", "allocs,throughput", "comma-separated metric classes that fail the run: allocs, throughput, time")
	threshold := fs.Float64("threshold", 0.15, "relative regression beyond which a significant delta fails")
	alpha := fs.Float64("alpha", 0.05, "significance level for the Mann-Whitney test")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *baseRev != "" && (*baseline != "" || *candidate != "") {
		return fmt.Errorf("-base-rev excludes -baseline and -candidate")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var base, cur Results
	var err error
	against := *baseline
	switch {
	case *baseRev != "":
		against = "rev " + *baseRev
		base, cur, err = runBaseRev(ctx, out, *baseRev, *bench, *packages, *benchtime, *count, *short)
	case *candidate != "":
		var f File
		f, err = loadFile(*candidate)
		cur = f.Benchmarks
	default:
		cur, err = runBenchmarks(ctx, out, *bench, *packages, *benchtime, *count, *short)
	}
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return fmt.Errorf("no benchmark results collected")
	}

	if *outFile != "" {
		doc := File{GoVersion: runtime.Version(), Benchtime: *benchtime, Count: *count, Benchmarks: cur}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d benchmarks)\n", *outFile, len(cur))
	}

	if *baseline != "" {
		f, err := loadFile(*baseline)
		if err != nil {
			return err
		}
		base = f.Benchmarks
	}
	if base != nil {
		report, regressions := compare(base, cur, gateSet(*gate), *threshold, *alpha)
		fmt.Fprint(out, report)
		if regressions > 0 {
			return fmt.Errorf("%d gated benchmark regression(s) vs %s", regressions, against)
		}
		fmt.Fprintf(out, "no gated regressions vs %s\n", against)
	}
	return nil
}

func loadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return f, fmt.Errorf("%s: no benchmarks", path)
	}
	return f, nil
}

// runBenchmarks shells out to go test and folds the parsed output of all
// packages into one result set.
func runBenchmarks(ctx context.Context, out io.Writer, bench, packages, benchtime string, count int, short bool) (Results, error) {
	args := []string{"test", "-run", "^$", "-bench", bench,
		"-benchtime", benchtime, "-count", strconv.Itoa(count), "-benchmem"}
	if short {
		args = append(args, "-short")
	}
	args = append(args, strings.Split(packages, ",")...)
	fmt.Fprintf(out, "running: go %s\n", strings.Join(args, " "))
	cmd := exec.CommandContext(ctx, "go", args...)
	var buf strings.Builder
	cmd.Stdout = io.MultiWriter(&buf, out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return parseBenchOutput(strings.NewReader(buf.String()))
}

// parseBenchOutput extracts per-benchmark metric samples from go test
// -bench output. Lines look like:
//
//	BenchmarkName/case=1-8  	 1  	1018 ns/op  	24 B/op  	1 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped so results compare
// across machines with different core counts.
func parseBenchOutput(r io.Reader) (Results, error) {
	res := Results{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := stripProcs(fields[0])
		// fields[1] is the iteration count; then (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if res[name] == nil {
				res[name] = map[string][]float64{}
			}
			res[name][unit] = append(res[name][unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// stripProcs removes a trailing -N GOMAXPROCS suffix from a benchmark
// name.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// metric classes for gating.
const (
	classAllocs     = "allocs"
	classThroughput = "throughput"
	classTime       = "time"
	classOther      = ""
)

// classify buckets a metric unit: allocs/op is its own gate class,
// "/sec" and "/min" units are throughput (higher is better), ns/op and
// B/op are time-like (lower is better, informational by default).
func classify(unit string) (class string, higherBetter bool) {
	switch {
	case unit == "allocs/op":
		return classAllocs, false
	case strings.Contains(unit, "/sec") || strings.Contains(unit, "/min"):
		return classThroughput, true
	case unit == "ns/op" || unit == "B/op":
		return classTime, false
	default:
		return classOther, false
	}
}

func gateSet(s string) map[string]bool {
	set := map[string]bool{}
	for _, c := range strings.Split(s, ",") {
		if c = strings.TrimSpace(c); c != "" {
			set[c] = true
		}
	}
	return set
}

func median(xs []float64) float64 {
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compare renders a delta table of every (benchmark, metric) present in
// both sets and counts gated regressions: significant (Mann-Whitney p <
// alpha) worsenings beyond the threshold in a gated metric class.
func compare(base, cur Results, gated map[string]bool, threshold, alpha float64) (string, int) {
	var names []string
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	regressions := 0
	for _, name := range names {
		var units []string
		for unit := range base[name] {
			if _, ok := cur[name][unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			old, new_ := base[name][unit], cur[name][unit]
			mo, mn := median(old), median(new_)
			var delta float64
			switch {
			case mo == mn:
				delta = 0
			case mo == 0:
				delta = math.Inf(1)
			default:
				delta = (mn - mo) / math.Abs(mo)
			}
			mw, err := stats.MannWhitneyU(old, new_)
			significant := err == nil && mw.P < alpha
			class, higherBetter := classify(unit)
			worse := delta > threshold
			if higherBetter {
				worse = delta < -threshold
			}
			verdict := "~"
			switch {
			case !significant:
				verdict = "~" // indistinguishable
			case worse && gated[class]:
				verdict = "REGRESSION"
				regressions++
			case worse:
				verdict = "worse (informational)"
			default:
				verdict = "ok"
			}
			p := math.NaN()
			if err == nil {
				p = mw.P
			}
			fmt.Fprintf(&b, "%-55s %14s  %12.6g -> %12.6g  %+7.1f%%  p=%.3f  %s\n",
				name, unit, mo, mn, delta*100, p, verdict)
		}
	}
	return b.String(), regressions
}
