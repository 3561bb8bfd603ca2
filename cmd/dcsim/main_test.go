package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseMode(t *testing.T) {
	for _, name := range []string{"always-on", "onoff-only", "dvfs-only", "oblivious", "coordinated"} {
		if _, err := parseMode(name); err != nil {
			t.Errorf("parseMode(%q): %v", name, err)
		}
	}
	if _, err := parseMode("nope"); err == nil {
		t.Error("unknown mode should error")
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
	cases := [][]string{
		{"-mode", "bogus"},
		{"-days", "0"},
		{"-fleet", "0"},
		{"-min-load", "0.9", "-max-load", "0.5"},
		{"-min-load", "-0.1"},
		{"-max-load", "1.5"},
		{"-speedup", "0"},
		{"-speedup", "-2"},
		{"-sla", "0"},
		{"-carbon", "-10"},
		{"-carbon-swing", "1.5"},
		{"-not-a-flag"},
		{"-serve", "-csv", "x.csv", "-days", "1", "-speedup", "1e7"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) should error", args)
		}
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
// rejecting the documented defaults.
func TestValidateAcceptsDefaults(t *testing.T) {
	o := options{
		modeStr: "coordinated", fleet: 40, days: 3, slaMS: 100,
		minFrac: 0.15, maxFrac: 0.5, speedup: 60,
		carbonBase: 475, carbonSwing: 0.2,
	}
	if err := o.validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}
