package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// A testBin is one package's test binary on one side of a -base-rev
// comparison, run in the package's own directory.
type testBin struct {
	dir, bin string
}

// A side is the source tree of one side of a -base-rev comparison: the
// package directories resolve under dir, and its results collect in res.
type side struct {
	name string
	dir  string
	bins map[string]testBin // by import path
	res  Results
}

// runBaseRev benchmarks the packages at git revision rev against the
// working tree on this host. It checks rev out with git worktree into a
// temporary directory, builds each package's test binary once per side,
// then runs the two sides interleaved for count rounds, alternating
// which side goes first, each binary in its package's directory. The
// worktree and the binaries are removed on every exit path. Packages
// that do not exist on both sides are skipped.
func runBaseRev(ctx context.Context, out io.Writer, rev, bench, packages, benchtime string, count int, short bool) (base, cur Results, err error) {
	top, err := gitOutput(ctx, ".", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, nil, err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	rel, err := relDir(top, cwd)
	if err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp("", "benchdiff-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	wt := filepath.Join(tmp, "base")
	if _, err := gitOutput(ctx, top, "worktree", "add", "--detach", wt, rev); err != nil {
		return nil, nil, err
	}
	defer func() {
		// Not ctx: an interrupted run still removes its worktree.
		if _, rerr := gitOutput(context.Background(), top, "worktree", "remove", "--force", wt); rerr != nil && err == nil {
			err = rerr
		}
	}()

	sides := []*side{
		{name: "base " + rev, dir: filepath.Join(wt, rel), res: Results{}},
		{name: "current", dir: cwd, res: Results{}},
	}
	pats := strings.Split(packages, ",")
	var order []string // the current side's packages, in go list order
	for i, s := range sides {
		paths, bins, err := buildTests(ctx, s.dir, filepath.Join(tmp, "bin"+strconv.Itoa(i)), pats)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
		s.bins, order = bins, paths
	}
	var pkgs []string
	for _, p := range order {
		if _, ok := sides[0].bins[p]; ok {
			pkgs = append(pkgs, p)
		} else {
			fmt.Fprintf(out, "skipping %s: no test binary at %s\n", p, rev)
		}
	}
	if len(pkgs) == 0 {
		return nil, nil, fmt.Errorf("no package with tests on both sides")
	}

	args := []string{"-test.run", "^$", "-test.bench", bench, "-test.benchtime", benchtime,
		"-test.count", "1", "-test.benchmem"}
	if short {
		args = append(args, "-test.short")
	}
	for r := 0; r < count; r++ {
		first, second := sides[0], sides[1]
		if r%2 == 1 {
			first, second = second, first
		}
		for _, p := range pkgs {
			for _, s := range []*side{first, second} {
				fmt.Fprintf(out, "round %d/%d, %s: %s\n", r+1, count, s.name, p)
				if err := runTestBin(ctx, out, s.bins[p], args, s.res); err != nil {
					return nil, nil, fmt.Errorf("%s: %s: %w", s.name, p, err)
				}
			}
		}
	}
	return sides[0].res, sides[1].res, nil
}

// buildTests lists the packages matching pats in dir and builds the test
// binary of each package that has tests into binDir. It returns the
// import paths in go list order and the binaries by import path.
func buildTests(ctx context.Context, dir, binDir string, pats []string) ([]string, map[string]testBin, error) {
	list := exec.CommandContext(ctx, "go", append([]string{"list", "-f",
		"{{.ImportPath}}\t{{.Dir}}\t{{len .TestGoFiles}}\t{{len .XTestGoFiles}}"}, pats...)...)
	list.Dir = dir
	list.Stderr = os.Stderr
	lines, err := list.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %w", err)
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, nil, err
	}
	var paths []string
	bins := map[string]testBin{}
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 || f[2] == "0" && f[3] == "0" {
			continue
		}
		tb := testBin{dir: f[1], bin: filepath.Join(binDir, strconv.Itoa(len(paths))+".test")}
		build := exec.CommandContext(ctx, "go", "test", "-c", "-o", tb.bin, f[0])
		build.Dir = dir
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			return nil, nil, fmt.Errorf("go test -c %s: %w", f[0], err)
		}
		paths = append(paths, f[0])
		bins[f[0]] = tb
	}
	return paths, bins, nil
}

// runTestBin runs one test binary with args in its package's directory,
// echoes its output and folds the parsed samples into res.
func runTestBin(ctx context.Context, out io.Writer, tb testBin, args []string, res Results) error {
	cmd := exec.CommandContext(ctx, tb.bin, args...)
	cmd.Dir = tb.dir
	var buf strings.Builder
	cmd.Stdout = io.MultiWriter(&buf, out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return err
	}
	got, err := parseBenchOutput(strings.NewReader(buf.String()))
	if err != nil {
		return err
	}
	for name, units := range got {
		if res[name] == nil {
			res[name] = map[string][]float64{}
		}
		for unit, xs := range units {
			res[name][unit] = append(res[name][unit], xs...)
		}
	}
	return nil
}

// gitOutput runs git with args in dir and returns its trimmed standard
// output; a failure carries git's standard error.
func gitOutput(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	b, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(b)), nil
}

// relDir returns dir relative to the repository root top, resolving
// symbolic links on both, so the same package directories can be found
// under the worktree.
func relDir(top, dir string) (string, error) {
	t, err := filepath.EvalSymlinks(top)
	if err != nil {
		return "", err
	}
	d, err := filepath.EvalSymlinks(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(t, d)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is not inside the repository at %s", dir, top)
	}
	return rel, nil
}
