// Command experiments regenerates every figure and quantitative claim of
// the paper (the index in DESIGN.md and EXPERIMENTS.md). Run all of them
// or one by id, optionally fanned out over a worker pool and replicated
// across seeds:
//
//	experiments                      # run everything
//	experiments -exp fig3            # one experiment
//	experiments -list                # list ids
//	experiments -seed 7              # change the deterministic seed
//	experiments -reps 8 -parallel 8  # 8 seed replications on 8 workers
//	experiments -json run.json       # machine-readable metrics sidecar
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/par"
)

// csver is implemented by results that carry plottable series.
type csver interface {
	CSVs() map[string]string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	o, err := parseFlags(args, os.Stderr)
	if err != nil {
		return err
	}
	return o.execute(out)
}

// options carries the parsed command line.
type options struct {
	id, csvDir, jsonOut                   string
	cpuProfile, memProfile, traceOut      string
	seed                                  int64
	list, invariants                      bool
	reps, parallel, scale, workers, sites int
	// set names the flags the command line gave explicitly.
	set map[string]bool
}

// parseFlags parses the command line and collects every flag violation
// into one error, so a command line with several bad flags comes back
// with all of them at once (same discipline as dcsim's aggregated
// validate). It runs nothing, so any argument vector is safe to pass.
// The flag set's usage and parse errors go to stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.id, "exp", "", "experiment id to run (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "deterministic base seed")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.StringVar(&o.csvDir, "csv", "", "directory to write figure series CSVs into")
	fs.IntVar(&o.reps, "reps", 1, "seed replications per experiment (seeds seed..seed+reps-1)")
	fs.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0), "worker pool size")
	fs.StringVar(&o.jsonOut, "json", "", "write per-job metrics and aggregates to this JSON file")
	fs.BoolVar(&o.invariants, "invariants", true, "assert physical-law invariants after every kernel event")
	fs.IntVar(&o.scale, "scale", 1, "facility size multiplier for the fig4-family experiments (servers per rack and matching ratings)")
	fs.IntVar(&o.workers, "workers", 0, fmt.Sprintf("per-run worker count for the sharded per-tick loops (0 = GOMAXPROCS, 1 = serial, at most %d; any value gives identical results)", par.MaxShards))
	fs.IntVar(&o.sites, "sites", 0, "federated-site count for the geo-family experiments (0 = each experiment's default of 4, minimum 2; changes the scenario)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile (after the run) to this file")
	fs.StringVar(&o.traceOut, "trace", "", "write a runtime execution trace of the run to this file")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if fs.NArg() > 0 {
		// The flag package stops at the first non-flag argument, so any
		// flag after it would be silently ignored.
		bad("unexpected argument %q (experiments takes flags only)", fs.Arg(0))
	}
	if o.reps < 1 {
		bad("-reps %d must be at least 1", o.reps)
	}
	if o.parallel < 1 {
		bad("-parallel %d must be at least 1", o.parallel)
	}
	if o.scale < 1 {
		bad("-scale %d must be at least 1", o.scale)
	}
	if o.workers < 0 || o.workers > par.MaxShards {
		// No shard list has more than par.MaxShards shards, so wider
		// pools only idle, and each worker is a goroutine started up front.
		bad("-workers %d must be between 0 and %d", o.workers, par.MaxShards)
	}
	if o.sites != 0 && o.sites < 2 {
		bad("-sites %d must be at least 2 (0 = default)", o.sites)
	}
	if o.id != "" && !exp.Known(o.id) {
		bad("-exp: unknown experiment %q; valid ids: %s", o.id, strings.Join(exp.IDs(), ", "))
	}
	problems = append(problems, unreadKnobs(o.id, o.set)...)
	if len(problems) > 0 {
		return options{}, fmt.Errorf("invalid flags:\n  - %s", strings.Join(problems, "\n  - "))
	}
	return o, nil
}

// execute runs what o asks for: the id list, or the experiments through
// the harness. o must come from parseFlags.
func (o options) execute(out io.Writer) error {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer trace.Stop()
	}
	if o.memProfile != "" {
		// The profile is written after the experiments complete (deferred
		// so every return path is covered, including harness errors).
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize a settled heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}
	if o.list {
		fmt.Fprintln(out, strings.Join(exp.IDs(), "\n"))
		return nil
	}
	cfg := harness.Config{
		BaseSeed:         o.seed,
		Reps:             o.reps,
		Parallel:         o.parallel,
		DisarmInvariants: !o.invariants,
		Scale:            o.scale,
		Workers:          o.workers,
		Sites:            o.sites,
	}
	if o.id != "" {
		cfg.IDs = []string{o.id}
	}
	start := time.Now()
	summaries, runErr := harness.Run(cfg)
	// Emit everything that succeeded before reporting the error: a
	// failing experiment should not hide 25 good ones.
	if o.reps == 1 {
		// Single-seed mode keeps the historical per-experiment output.
		for _, s := range summaries {
			job := s.Reps[0]
			if job.Err != "" {
				continue
			}
			fmt.Fprint(out, job.Report)
			if err := writeCSVs(out, o.csvDir, job.Result); err != nil {
				return err
			}
			wall := time.Duration(job.WallSeconds * float64(time.Second))
			fmt.Fprintf(out, "(%s completed in %v)\n\n", s.ID, wall.Round(time.Millisecond))
		}
	} else {
		// Replicated mode reports the aggregate table; per-seed detail
		// goes to the JSON sidecar.
		fmt.Fprint(out, harness.Table(summaries))
		fmt.Fprintf(out, "(%d experiments × %d seeds on %d workers in %v)\n",
			len(summaries), o.reps, o.parallel, time.Since(start).Round(time.Millisecond))
		if o.csvDir != "" {
			for _, s := range summaries {
				if s.Reps[0].Err == "" {
					if err := writeCSVs(out, o.csvDir, s.Reps[0].Result); err != nil {
						return err
					}
				}
			}
		}
	}
	if o.jsonOut != "" {
		doc := struct {
			BaseSeed  int64             `json:"base_seed"`
			Reps      int               `json:"reps"`
			Parallel  int               `json:"parallel"`
			Summaries []harness.Summary `json:"summaries"`
		}{o.seed, o.reps, o.parallel, summaries}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", o.jsonOut)
	}
	return runErr
}

// unreadKnobs returns a problem for each of -scale and -sites given on
// the command line (set) when id is a known experiment that does not
// read it, since the run would ignore the flag. With no -exp it returns
// none: the suite has experiments that read each flag.
func unreadKnobs(id string, set map[string]bool) []string {
	if !exp.Known(id) {
		return nil
	}
	var problems []string
	for _, knob := range []struct {
		flag string
		ids  []string
	}{{"scale", exp.FleetScaleIDs()}, {"sites", exp.FederationSitesIDs()}} {
		if set[knob.flag] && !slices.Contains(knob.ids, id) {
			problems = append(problems, fmt.Sprintf("-%s: experiment %q does not read it; only %s do",
				knob.flag, id, strings.Join(knob.ids, ", ")))
		}
	}
	return problems
}

// writeCSVs exports a result's plottable series into dir, if requested
// and the result has any.
func writeCSVs(out io.Writer, dir string, res exp.Result) error {
	if dir == "" {
		return nil
	}
	c, ok := res.(csver)
	if !ok {
		return nil
	}
	for name, csv := range c.CSVs() {
		p := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(p, []byte(csv), 0o644); err != nil {
			return fmt.Errorf("%s: %w", res.ID(), err)
		}
		fmt.Fprintf(out, "wrote %s\n", p)
	}
	return nil
}
