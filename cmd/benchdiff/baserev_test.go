package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// tinyBench is a one-benchmark package; %s is the body of its loop.
const tinyBench = `package tiny

import "testing"

var sink, sink2 []byte

func BenchmarkAlloc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		%s
	}
}
`

// TestBaseRevGate builds a git repository holding a tiny module with one
// benchmark. Its second commit allocates twice per op where the first
// allocated once: -base-rev HEAD~1 must flag the allocs/op regression.
// A third commit changes no code: -base-rev HEAD~1 must then flag
// nothing. Both runs must leave no worktree behind.
func TestBaseRevGate(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not found")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=bench", "-c", "user.email=bench@example.com",
			"-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = dir
		b, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %s: %v\n%s", strings.Join(args, " "), err, b)
		}
		return string(b)
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(msg string) {
		t.Helper()
		git("add", "-A")
		git("commit", "-q", "-m", msg)
	}
	git("init", "-q")
	write("go.mod", "module example.com/tiny\n\ngo 1.22\n")
	write("tiny_test.go", strings.Replace(tinyBench, "%s", "sink = make([]byte, 64)", 1))
	commit("one allocation per op")
	write("tiny_test.go", strings.Replace(tinyBench, "%s", "sink, sink2 = make([]byte, 64), make([]byte, 64)", 1))
	commit("two allocations per op")

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	gate := func() (string, error) {
		t.Helper()
		var out strings.Builder
		err := run([]string{"-base-rev", "HEAD~1", "-packages", ".", "-count", "5", "-benchtime", "20x"}, &out)
		if wt := git("worktree", "list", "--porcelain"); strings.Count(wt, "worktree ") != 1 {
			t.Fatalf("worktrees left behind:\n%s", wt)
		}
		return out.String(), err
	}
	out, err := gate()
	if err == nil || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("doubled allocations not flagged (err %v):\n%s", err, out)
	}
	if !strings.Contains(out, "round 5/5") {
		t.Errorf("missing the fifth round:\n%s", out)
	}

	write("README", "no code change\n")
	commit("docs only")
	if out, err := gate(); err != nil || strings.Contains(out, "REGRESSION") || !strings.Contains(out, "no gated regressions vs rev HEAD~1") {
		t.Fatalf("identical code flagged (err %v):\n%s", err, out)
	}
}
