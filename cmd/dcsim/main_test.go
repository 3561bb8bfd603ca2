package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/workload"
)

// TestParseMode: each policy mode's -mode value is the name the summary
// prints for it.
func TestParseMode(t *testing.T) {
	for _, m := range []core.PolicyMode{
		core.ModeAlwaysOn, core.ModeOnOffOnly, core.ModeDVFSOnly, core.ModeOblivious, core.ModeCoordinated,
	} {
		t.Run(m.String(), func(t *testing.T) {
			if got, err := parseMode(m.String()); err != nil || got != m {
				t.Errorf("parseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
			}
		})
	}
	if _, err := parseMode("nope"); err == nil {
		t.Error("unknown mode should error")
	}
}

// TestParseRetry: each retry policy's -retry value is the policy's name,
// and "none" (or no value) leaves the closed loop off.
func TestParseRetry(t *testing.T) {
	for _, p := range []workload.RetryPolicy{workload.RetryNaive, workload.RetryBackoff, workload.RetryBudget} {
		t.Run(p.String(), func(t *testing.T) {
			if got, on, err := parseRetry(p.String()); err != nil || !on || got != p {
				t.Errorf("parseRetry(%q) = %v, %v, %v; want %v, true, nil", p.String(), got, on, err, p)
			}
		})
	}
	for _, s := range []string{"", "none"} {
		if _, on, err := parseRetry(s); err != nil || on {
			t.Errorf("parseRetry(%q) = on %v, %v; want off", s, on, err)
		}
	}
}

func TestRunSmallSimulation(t *testing.T) {
	if err := run([]string{"-mode", "coordinated", "-fleet", "8", "-days", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "samples.csv")
	if err := run([]string{"-mode", "onoff-only", "-fleet", "6", "-days", "1", "-csv", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "seconds,offered,active,pstate,power_w,response_ms,dropped" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != 1+24*60 {
		t.Errorf("csv rows = %d, want %d", len(lines)-1, 24*60)
	}
}

func TestRunUsers(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "coordinated", "-fleet", "8", "-days", "1", "-users"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"users offered:", "users admitted:", "users rejected:", "SLO misses interactive:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunUsersRetry(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "coordinated", "-fleet", "8", "-days", "1", "-users", "-retry", "budget"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"users retried:", "users abandoned:", "breaker:", "amplification"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRetryFlagValidation(t *testing.T) {
	if err := run([]string{"-retry", "bogus"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-retry") {
		t.Errorf("bogus -retry not rejected: %v", err)
	}
	if err := run([]string{"-retry", "naive"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-users") {
		t.Errorf("-retry without -users not rejected: %v", err)
	}
}

func TestRunFacility(t *testing.T) {
	if err := run([]string{"-mode", "coordinated", "-fleet", "10", "-days", "1", "-facility"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a fragment of the error
	}{
		{[]string{"-mode", "bogus"}, `-mode: unknown mode "bogus"`},
		{[]string{"-days", "0"}, "-days 0 must be positive"},
		{[]string{"-days", "106752"}, "-days 106752 must be at most 106751"},
		{[]string{"-fleet", "8", "-days", "213504"}, "-days 213504 must be at most 106751"},
		{[]string{"-fleet", "0"}, "-fleet 0 must be positive"},
		{[]string{"-min-load", "0.9", "-max-load", "0.5"}, "-min-load 0.9 must be below -max-load 0.5"},
		{[]string{"-min-load", "-0.1"}, "-min-load -0.1 must be non-negative"},
		{[]string{"-max-load", "1.5"}, "-max-load 1.5 must be at most 1"},
		{[]string{"-speedup", "0"}, "-speedup 0 must be positive"},
		{[]string{"-speedup", "-2"}, "-speedup -2 must be positive"},
		{[]string{"-sla", "0"}, "-sla 0 must be positive"},
		{[]string{"-carbon", "-10"}, "base intensity -10"},
		{[]string{"-carbon-swing", "1.5"}, "swing 1.5"},
		{[]string{"-not-a-flag"}, "flag provided but not defined: -not-a-flag"},
		{[]string{"-serve", "-csv", "x.csv", "-days", "1", "-speedup", "1e7"}, "-csv is not supported with -serve"},
		{[]string{"-facility", "-fleet", "25", "-days", "1"}, "-facility needs -fleet 25 divisible by 10 servers per rack"},
		{[]string{"-sites", "2", "-sla", "5"}, "-sla 5 is not supported with -sites"},
		{[]string{"-sites", "2", "-min-load", "0.6", "-max-load", "0.9"}, "-min-load 0.6 is not supported with -sites"},
		{[]string{"-sites", "2", "-max-load", "0.9"}, "-max-load 0.9 is not supported with -sites"},
		{[]string{"-sites", "2", "-fleet", "12", "-days", "1", "-users"}, "-users is not supported with -sites"},
		{[]string{"-fleet", "8", "-days", "1", "-speedup", "5"}, "-speedup 5 is not supported without -serve"},
		{[]string{"-fleet", "8", "-days", "1", "-listen", "bogus"}, `-listen "bogus" is not supported without -serve`},
		{[]string{"-fleet", "8", "-days", "1", "-carbon", "900"}, "-carbon 900 is not supported in a single-site batch run"},
		{[]string{"-fleet", "8", "-days", "1", "-carbon-swing", "0.5"}, "-carbon-swing 0.5 is not supported in a single-site batch run"},
		{[]string{"-sites", "2", "-speedup", "5"}, "-speedup 5 is not supported without -serve"},
		{[]string{"-sites", "2", "-listen", "bogus"}, `-listen "bogus" is not supported without -serve`},
		{[]string{"-workers", "-1"}, "-workers -1 must be between 0 and 64"},
		{[]string{"-workers", "65"}, "-workers 65 must be between 0 and 64"},
		{[]string{"-sites", "2", "-workers", "1000000"}, "-workers 1000000 must be between 0 and 64"},
		{[]string{"-min-load", "NaN"}, "-min-load NaN must be non-negative"},
		{[]string{"-max-load", "NaN"}, "-max-load NaN must be at most 1"},
		{[]string{"-serve", "-speedup", "NaN"}, "-speedup NaN must be positive and finite"},
		{[]string{"-serve", "-speedup", "+Inf"}, "-speedup +Inf must be positive and finite"},
		{[]string{"-sla", "1537228672810"}, "-sla 1537228672810 must be at most 1537228672809"},
		{[]string{"-fleet", "8", "extra", "-days", "0"}, `unexpected argument "extra"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestRunGeoSites(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sites", "2", "-fleet", "12", "-days", "1", "-retry", "budget"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mode=weighted sites=2", "routing epochs:", "users goodput:",
		"site-0", "site-1", "weight",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("geo output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunServe runs both live forms end to end. At this speedup the
// pacer's first tick reaches the one-day horizon.
func TestRunServe(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"facility", []string{"-facility"}},
		{"sites", []string{"-sites", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-serve", "-fleet", "20", "-days", "1", "-speedup", "1e7", "-listen", "127.0.0.1:0"}, tc.extra...)
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"dcsim: serving on http://", "stopped at sim time 24h0m0s"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestGeoSitesValidation pins the federated flag rules into the same
// aggregated one-error report the single-site flags use.
func TestGeoSitesValidation(t *testing.T) {
	err := run([]string{
		"-sites", "1", "-csv", "x.csv", "-mode", "oblivious", "-speedup", "0",
	}, io.Discard)
	if err == nil {
		t.Fatal("bad federated flag set should be rejected")
	}
	msg := err.Error()
	for _, want := range []string{"-sites 1", "-speedup 0"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
	err = run([]string{
		"-sites", "2", "-csv", "x.csv", "-mode", "oblivious", "-facility", "-fleet", "25",
	}, io.Discard)
	if err == nil {
		t.Fatal("bad federated flag set should be rejected")
	}
	msg = err.Error()
	for _, want := range []string{"-csv", "-mode \"oblivious\"", "divisible by 20"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

// TestRunValidationReportsEverything pins the bugfix: a command line with
// several bad flags must come back with one error naming all of them, not
// just the first — the old checks returned on the first hit and never
// looked at -speedup at all.
func TestRunValidationReportsEverything(t *testing.T) {
	err := run([]string{
		"-mode", "bogus", "-fleet", "0", "-days", "-1",
		"-min-load", "0.9", "-max-load", "0.5", "-speedup", "0",
	}, io.Discard)
	if err == nil {
		t.Fatal("run should reject the flag set")
	}
	msg := err.Error()
	for _, want := range []string{"-mode", "-fleet 0", "-days -1", "-min-load 0.9", "-speedup 0"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

// TestValidateAcceptsDefaults guards against the aggregated validator
// rejecting the documented defaults, or the longest horizon a
// time.Duration holds.
func TestValidateAcceptsDefaults(t *testing.T) {
	o := options{
		modeStr: "coordinated", fleet: 40, days: 3, slaMS: 100,
		minFrac: 0.15, maxFrac: 0.5, speedup: 60,
		carbonBase: 475, carbonSwing: 0.2,
	}
	if err := o.validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	o.days = 106751
	if err := o.validate(); err != nil {
		t.Fatalf("-days 106751 rejected: %v", err)
	}
}

// TestValidateAcceptsFlagsThePathReads: -speedup and -listen given with
// -serve, and -carbon and -carbon-swing given with -serve or -sites, are
// read by the path they select, so validate accepts them.
func TestValidateAcceptsFlagsThePathReads(t *testing.T) {
	base := options{
		modeStr: "coordinated", fleet: 40, days: 3, slaMS: 100,
		minFrac: 0.15, maxFrac: 0.5, speedup: 600, listen: "127.0.0.1:8080",
		carbonBase: 900, carbonSwing: 0.5,
	}
	served, federated := base, base
	served.serveMode = true
	served.set = map[string]bool{"speedup": true, "listen": true, "carbon": true, "carbon-swing": true}
	federated.sites = 2
	federated.set = map[string]bool{"carbon": true, "carbon-swing": true}
	for name, o := range map[string]options{"serve": served, "sites": federated} {
		if err := o.validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestWorkersResolvedOnBothPaths: -workers 0 means GOMAXPROCS, at most
// par.MaxShards, on the federated path as on the single-site one; an
// explicit width passes through unchanged.
func TestWorkersResolvedOnBothPaths(t *testing.T) {
	for _, tc := range []struct {
		workers string
		want    int
	}{{"0", min(runtime.GOMAXPROCS(0), par.MaxShards)}, {"1", 1}, {"3", 3}, {"64", 64}} {
		o, err := parseFlags([]string{"-sites", "2", "-workers", tc.workers}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.geoConfig().SiteWorkers; got != tc.want {
			t.Errorf("-workers %s: SiteWorkers %d, want %d", tc.workers, got, tc.want)
		}
		if err := o.geoConfig().Validate(); err != nil {
			t.Errorf("-workers %s: %v", tc.workers, err)
		}
	}
}

// FuzzDcsimFlags parses random argument vectors. parseFlags must never
// panic, and every vector it accepts must satisfy each rule below, each
// written so that a NaN fails it. It never builds or runs a simulation:
// an accepted -fleet can be arbitrarily large.
func FuzzDcsimFlags(f *testing.F) {
	for _, args := range []string{
		"",
		"-mode coordinated -fleet 40 -days 3",
		"-mode oblivious -fleet 40 -days 3 -csv samples.csv",
		"-facility -fleet 20 -days 2 -workers 2",
		"-users -retry budget -sla 250 -min-load 0.1 -max-load 0.9",
		"-serve -facility -speedup 600 -listen 127.0.0.1:8080 -carbon 900 -carbon-swing 0.5",
		"-sites 4 -fleet 40 -days 1 -retry backoff -workers 0",
		"-sites 3 -facility -fleet 60 -serve -speedup 3600",
		"-min-load NaN",
		"-max-load NaN -min-load NaN",
		"-serve -speedup NaN",
		"-serve -speedup +Inf",
		"-sla 9223372036854775807",
		"-sites 2 -workers 65",
		"-days 106752 -fleet -1 -sites 1 extra",
	} {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(strings.Fields(line), io.Discard)
		if err != nil {
			return
		}
		_, modeErr := parseMode(o.modeStr)
		_, retryOn, retryErr := parseRetry(o.retryStr)
		horizon := time.Duration(o.days) * 24 * time.Hour
		trigger := time.Duration(o.slaMS) * time.Millisecond * 6
		served, federated := o.serveMode, o.sites > 0
		for _, r := range []struct {
			ok   bool
			rule string
		}{
			{modeErr == nil, "-mode names a policy"},
			{retryErr == nil, "-retry names a policy"},
			{o.fleet > 0, "-fleet is positive"},
			{o.days > 0 && horizon/(24*time.Hour) == time.Duration(o.days), "the -days horizon fits a time.Duration"},
			{o.slaMS > 0 && trigger/6/time.Millisecond == time.Duration(o.slaMS), "the -sla trigger fits a time.Duration"},
			{o.minFrac >= 0 && o.minFrac < o.maxFrac && o.maxFrac <= 1, "0 <= -min-load < -max-load <= 1"},
			{o.speedup > 0 && o.speedup < math.Inf(1), "-speedup is positive and finite"},
			{o.carbonModel().Validate() == nil, "-carbon and -carbon-swing form a valid model"},
			{o.workers >= 1 && o.workers <= par.MaxShards, "-workers resolves to [1, par.MaxShards]"},
			{o.sites == 0 || o.sites >= 2, "-sites is 0 or at least 2"},
			{!retryOn || o.users || federated, "-retry closes a loop around admission"},
			{served || !o.set["speedup"] && !o.set["listen"], "-speedup and -listen need -serve"},
			{!served || o.csvPath == "", "-csv is batch only"},
			{served || federated || !o.set["carbon"] && !o.set["carbon-swing"], "carbon flags need -serve or -sites"},
			{!federated || o.csvPath == "" && o.modeStr == "coordinated", "-sites runs coordinated managers without -csv"},
			{!federated || !o.set["sla"] && !o.set["min-load"] && !o.set["max-load"] && !o.set["users"], "-sites reads no single-site demand flag"},
			{!o.facility || federated && o.fleet%20 == 0 || !federated && o.fleet%serversPerRack == 0, "-facility fills whole racks"},
		} {
			if !r.ok {
				t.Errorf("accepted %q, which breaks the rule: %s", line, r.rule)
			}
		}
	})
}
