package exp

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// update regenerates the golden fixtures instead of comparing against
// them: go test ./internal/exp -run Golden -update
var update = flag.Bool("update", false, "rewrite golden fixtures from current results")

// goldenRelTol is the per-metric relative tolerance. Runs are
// deterministic from the seed, so the tolerance only needs to absorb
// floating-point differences across toolchains and architectures; any
// intentional change to an experiment's output beyond 1e-6 relative
// must be accompanied by a fixture regeneration.
const goldenRelTol = 1e-6

// goldenPath returns the fixture file for one experiment.
func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

// TestGolden pins the headline metrics of every experiment at seed 1
// against per-experiment JSON fixtures. It is the regression anchor for
// the curves in EXPERIMENTS.md: a refactor that bends any metric fails
// here even when behaviour stays "plausible".
func TestGolden(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if id == "telemetry" && testing.Short() {
				t.Skip("telemetry is a throughput measurement; skipped in -short")
			}
			t.Parallel()
			res, err := Run(id, 1)
			if err != nil {
				t.Fatalf("Run(%q, 1): %v", id, err)
			}
			got := Metrics(res)
			if len(got) == 0 {
				t.Fatalf("experiment %q produced no scalar metrics", id)
			}
			if *update {
				writeGolden(t, id, got)
				return
			}
			want := readGolden(t, id)
			compareGolden(t, id, got, want)
		})
	}
}

// writeGolden serializes metrics deterministically (json maps marshal in
// sorted key order) so -update twice in a row produces a zero diff.
func writeGolden(t *testing.T, id string, m map[string]float64) {
	t.Helper()
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("experiment %q metric %s is %v; refusing to pin a non-finite value", id, k, v)
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatalf("marshal %q fixture: %v", id, err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(id)), 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := os.WriteFile(goldenPath(id), append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write %q fixture: %v", id, err)
	}
}

func readGolden(t *testing.T, id string) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatalf("missing golden fixture for %q (run: go test ./internal/exp -run Golden -update): %v", id, err)
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("corrupt golden fixture for %q: %v", id, err)
	}
	return m
}

func compareGolden(t *testing.T, id string, got, want map[string]float64) {
	t.Helper()
	var missing, extra, diffs []string
	for k := range want {
		if _, ok := got[k]; !ok {
			missing = append(missing, k)
		}
	}
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			extra = append(extra, k)
			continue
		}
		if !withinRelTol(g, w, goldenRelTol) {
			diffs = append(diffs, fmt.Sprintf("%s: got %v want %v (Δ %+.3g%%)", k, g, w, 100*(g-w)/nonZero(w)))
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	sort.Strings(diffs)
	for _, k := range missing {
		t.Errorf("%s: metric %s in fixture but not produced", id, k)
	}
	for _, k := range extra {
		t.Errorf("%s: metric %s produced but not in fixture (regenerate with -update)", id, k)
	}
	for _, d := range diffs {
		t.Errorf("%s: %s", id, d)
	}
}

// withinRelTol reports |a-b| <= tol * max(|a|,|b|), with an absolute
// floor near zero.
func withinRelTol(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale+1e-12
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// TestGoldenFixturesComplete fails when a fixture exists for an
// experiment that is no longer registered (the inverse direction —
// registered but no fixture — fails inside TestGolden).
func TestGoldenFixturesComplete(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("golden dir: %v", err)
	}
	known := make(map[string]bool)
	for _, id := range IDs() {
		known[id] = true
	}
	for _, e := range entries {
		id := e.Name()
		if filepath.Ext(id) != ".json" {
			continue
		}
		id = id[:len(id)-len(".json")]
		if !known[id] {
			t.Errorf("stale fixture %s for unregistered experiment", e.Name())
		}
	}
}

// TestMetricsExcludesVolatile guards the wall-clock exclusion list: the
// telemetry fixture must never pin machine-dependent throughput.
func TestMetricsExcludesVolatile(t *testing.T) {
	m := Metrics(TelemetryResult{PointsPerMinute: 123, QuerySpeedup: 9, TrendLen: 1})
	if _, ok := m["PointsPerMinute"]; ok {
		t.Error("PointsPerMinute should be excluded from metrics")
	}
	if _, ok := m["QuerySpeedup"]; ok {
		t.Error("QuerySpeedup should be excluded from metrics")
	}
	if got := m["TrendLen"]; got != 1 {
		t.Errorf("TrendLen = %v, want 1", got)
	}
}
