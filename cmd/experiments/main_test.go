package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/par"
)

func TestListFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, id := range []string{"fig1", "fig3", "pathology", "tier2", "capping"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %q:\n%s", id, out)
		}
	}
}

func TestSingleExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "idle60", "-seed", "3"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "idle60") || !strings.Contains(out, "60%") {
		t.Errorf("unexpected output:\n%s", out)
	}
	if !strings.Contains(out, "completed in") {
		t.Error("missing timing footer")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "nope"}, &b)
	if err == nil {
		t.Fatal("unknown experiment should error")
	}
	// The rejection happens upfront and names the valid set.
	for _, id := range []string{"nope", "fig1", "fault-outage", "tier2"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not mention %q", err, id)
		}
	}
	if b.Len() != 0 {
		t.Errorf("unknown experiment still produced output:\n%s", b.String())
	}
}

func TestBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &b); err == nil {
		t.Error("bad flag should error")
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-exp", "fig3", "-csv", dir}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig3_connections.csv", "fig3_logins.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 1000 {
			t.Errorf("%s suspiciously small: %d bytes", name, len(data))
		}
	}
}

func TestReplicatedRunEmitsTableAndJSON(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "run.json")
	var b strings.Builder
	if err := run([]string{"-exp", "dvfs", "-reps", "3", "-parallel", "2", "-json", jsonPath}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"experiment", "events/s", "dvfs", "1 experiments × 3 seeds on 2 workers"} {
		if !strings.Contains(out, want) {
			t.Errorf("replicated output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "completed in") {
		t.Error("replicated mode should print the aggregate table, not per-run footers")
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		BaseSeed  int64 `json:"base_seed"`
		Reps      int   `json:"reps"`
		Summaries []struct {
			ID   string `json:"id"`
			Reps []struct {
				Seed   int64  `json:"seed"`
				Events uint64 `json:"events"`
			} `json:"reps"`
		} `json:"summaries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("sidecar is not valid JSON: %v", err)
	}
	if doc.Reps != 3 || len(doc.Summaries) != 1 || len(doc.Summaries[0].Reps) != 3 {
		t.Fatalf("unexpected sidecar shape: %+v", doc)
	}
	for r, rep := range doc.Summaries[0].Reps {
		if rep.Seed != int64(1+r) {
			t.Errorf("rep %d seed = %d, want %d", r, rep.Seed, 1+r)
		}
		if rep.Events == 0 {
			t.Errorf("rep %d recorded no kernel events", r)
		}
	}
}

func TestSingleSeedOutputUnchangedByWorkerCount(t *testing.T) {
	var serial, parallel strings.Builder
	if err := run([]string{"-exp", "capping", "-parallel", "1"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "capping", "-parallel", "8"}, &parallel); err != nil {
		t.Fatal(err)
	}
	strip := func(s string) string {
		// The wall-clock footer legitimately differs; everything else
		// must be byte-identical.
		i := strings.LastIndex(s, "(capping completed in")
		if i < 0 {
			t.Fatalf("missing footer:\n%s", s)
		}
		return s[:i]
	}
	if strip(serial.String()) != strip(parallel.String()) {
		t.Error("report differs between -parallel 1 and -parallel 8")
	}
}

func TestBadRepsAndParallel(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-reps", "0"}, &b); err == nil {
		t.Error("reps 0 should error")
	}
	if err := run([]string{"-parallel", "0"}, &b); err == nil {
		t.Error("parallel 0 should error")
	}
	if err := run([]string{"-sites", "1"}, &b); err == nil {
		t.Error("sites 1 should error")
	}
}

// TestValidationReportsEverything pins the aggregated validator: a
// command line with several bad flags must come back with one error
// naming all of them, not just the first hit.
func TestValidationReportsEverything(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-reps", "0", "-parallel", "0", "-scale", "0", "-workers", "-1", "-sites", "1", "-exp", "nope"}, &b)
	if err == nil {
		t.Fatal("flag set should be rejected")
	}
	msg := err.Error()
	for _, want := range []string{"-reps 0", "-parallel 0", "-scale 0", "-workers -1", "-sites 1", "-exp"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

// TestUnreadKnobsRejected: -scale and -sites set for an experiment that
// does not read them are rejected upfront, each naming the experiments
// that do read it, alongside any other bad flag.
func TestUnreadKnobsRejected(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		want      []string
		unflagged string
	}{
		{[]string{"-exp", "fig1", "-sites", "3"}, []string{`-sites: experiment "fig1" does not read it`, "geo-brownout, geo-carbon, geo-diurnal"}, "-scale:"},
		{[]string{"-exp", "geo", "-sites", "3"}, []string{`-sites: experiment "geo" does not read it`}, "-scale:"},
		{[]string{"-exp", "pue2", "-scale", "3"}, []string{`-scale: experiment "pue2" does not read it`, "fault-crac, fault-outage, fault-rack, fig4, users-surge"}, "-sites:"},
		{[]string{"-exp", "fig4", "-scale", "1", "-sites", "2", "-reps", "0"}, []string{`-sites: experiment "fig4" does not read it`, "-reps 0"}, "-scale:"},
	} {
		var b strings.Builder
		err := run(tc.args, &b)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%v: error %q does not mention %q", tc.args, err, want)
			}
		}
		if strings.Contains(err.Error(), tc.unflagged) {
			t.Errorf("%v: error %q rejects a knob the experiment reads or was not given", tc.args, err)
		}
		if b.Len() != 0 {
			t.Errorf("%v: rejected run still produced output:\n%s", tc.args, b.String())
		}
	}
}

// TestReadKnobsAccepted: an experiment that reads a knob takes it, and
// without -exp both knobs are accepted, since the suite reads each.
func TestReadKnobsAccepted(t *testing.T) {
	for _, args := range [][]string{{"-exp", "fig4", "-scale", "2"}, {"-exp", "geo-diurnal", "-sites", "3"}} {
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
	if got := unreadKnobs("", map[string]bool{"scale": true, "sites": true}); got != nil {
		t.Errorf("a run without -exp rejects %v", got)
	}
}

// TestGeoSitesKnob runs a geo-family experiment at a non-default site
// count; the knob must flow through the harness into the federation.
func TestGeoSitesKnob(t *testing.T) {
	if testing.Short() {
		t.Skip("24h federation run")
	}
	var b strings.Builder
	if err := run([]string{"-exp", "geo-diurnal", "-sites", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "2 federated sites") {
		t.Errorf("report does not reflect -sites 2:\n%s", out)
	}
}

// TestWorkersAndArgumentsRejected: -workers above par.MaxShards, and an
// argument that is not a flag (the flag package would stop there and
// ignore every flag after it), are rejected before anything runs.
func TestWorkersAndArgumentsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "65"}, "-workers 65 must be between 0 and 64"},
		{[]string{"-exp", "fig1", "-workers", "1000000000"}, "-workers 1000000000 must be between 0 and 64"},
		{[]string{"-exp", "fig1", "extra", "-reps", "0"}, `unexpected argument "extra"`},
	} {
		var b strings.Builder
		err := run(tc.args, &b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if b.Len() != 0 {
			t.Errorf("%v: rejected run still produced output:\n%s", tc.args, b.String())
		}
	}
	if _, err := parseFlags([]string{"-workers", "64"}, io.Discard); err != nil {
		t.Errorf("-workers 64 rejected: %v", err)
	}
}

// FuzzExperimentsFlags parses random argument vectors. parseFlags must
// never panic, and every vector it accepts must satisfy each rule below.
// It never runs an experiment.
func FuzzExperimentsFlags(f *testing.F) {
	for _, args := range []string{
		"",
		"-exp fig3 -seed 7",
		"-reps 8 -parallel 8 -json run.json",
		"-exp fig4 -scale 2 -workers 4",
		"-exp geo-diurnal -sites 3 -invariants=false",
		"-exp pue2 -scale 3",
		"-exp fig1 -sites 3",
		"-reps 0 -parallel 0 -scale 0 -workers -1 -sites 1 -exp nope",
		"-workers 65",
		"-list extra -reps 2",
	} {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(strings.Fields(line), io.Discard)
		if err != nil {
			return
		}
		for _, r := range []struct {
			ok   bool
			rule string
		}{
			{o.reps >= 1, "-reps is at least 1"},
			{o.parallel >= 1, "-parallel is at least 1"},
			{o.scale >= 1, "-scale is at least 1"},
			{o.workers >= 0 && o.workers <= par.MaxShards, "-workers is in [0, par.MaxShards]"},
			{o.sites == 0 || o.sites >= 2, "-sites is 0 or at least 2"},
			{o.id == "" || exp.Known(o.id), "-exp names a registered experiment"},
			{o.id == "" || !o.set["scale"] || slices.Contains(exp.FleetScaleIDs(), o.id), "-scale goes to an experiment that reads it"},
			{o.id == "" || !o.set["sites"] || slices.Contains(exp.FederationSitesIDs(), o.id), "-sites goes to an experiment that reads it"},
		} {
			if !r.ok {
				t.Errorf("accepted %q, which breaks the rule: %s", line, r.rule)
			}
		}
	})
}
