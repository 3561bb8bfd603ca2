// Dead-code guard: every top-level declaration in a non-test file under
// internal/ must be named by some non-test file of the repository
// (cmd/, examples/ and perfbench/ included), or carry an allow-list
// entry that says why only tests run it.
//
// Matching is first-order and by name: a declaration is used when any
// other top-level declaration in a non-test file names it, as an
// identifier or as the selector of the same name. Its own body and a
// method's receiver do not count. Two limits follow. A method that shares
// its name with a used one counts as used, and a group of declarations
// that name only each other is not caught. Neither can flag a declaration
// that is in use.
package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The four reasons a declaration only tests run may stay.
const (
	accessor = "accessor: tests read production state through it"
	oracle   = "reference model: a test compares a production path against it"
	helper   = "helper: the tests of several packages share it"
	analysis = "§5.3 analysis that internal/exp/integration_test.go runs end to end"
)

// deadcodeAllow lists the declarations under internal/ that no non-test
// file names, each with the reason it stays.
var deadcodeAllow = map[string]string{
	"internal/core.CapEnforcer.RelaxEvents":   accessor,
	"internal/core.CapEnforcer.Uncappable":    accessor,
	"internal/core.DataCenter.ZoneOfServer":   accessor,
	"internal/core.Degrader.LadderStage":      accessor,
	"internal/core.TelemetryGuard.DarkRounds": accessor,
	"internal/core.Manager.LastOutcome":       accessor,
	"internal/core.Manager.LastRetryOutcome":  accessor,
	"internal/fault.Injector.ActiveDip":       accessor,
	"internal/fault.Injector.Reverted":        accessor,
	"internal/fault.Injector.Armed":           accessor,
	"internal/fault.Utility.GridUp":           accessor,
	"internal/fault.Utility.GeneratorOn":      accessor,
	"internal/fault.Utility.Outages":          accessor,
	"internal/geo.Federation.Weights":         accessor,
	"internal/power.Battery.Cycles":           accessor,
	"internal/power.Battery.Depletions":       accessor,
	"internal/sensornet.Network.FaultyCount":  accessor,
	"internal/server.Server.Crashes":          accessor,
	"internal/server.Server.InletTempC":       accessor,
	"internal/sim.Engine.Pending":             accessor,

	"internal/workload.SimulateMM1On":                oracle,
	"internal/oversub.Gaussian":                      oracle,
	"internal/oversub.Gaussian.ViolationProbability": oracle,
	"internal/oversub.Gaussian.SafeCapacity":         oracle,

	"internal/server.MustNew":         helper,
	"internal/fault.GenerateSchedule": helper,

	"internal/telemetry.Store.Anomalies":          analysis,
	"internal/telemetry.Store.CorrelateDetrended": analysis,
}

// stdlibMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, sort.Interface, heap.Interface,
// json.Marshaler, http.Handler, io.Reader and the like), so a method of
// that name needs no caller in the repository.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
}

// topDecl is one top-level declaration under internal/.
type topDecl struct {
	key  string // internal/pkg.Name, or internal/pkg.Type.Method
	name string // the identifier other declarations name it by
	pos  string // file:line, relative to the scanned root
	used bool
}

// scanDecls parses every non-test .go file under root, skipping hidden
// and testdata directories, and returns each top-level declaration of
// the files under root/internal, with whether another declaration names
// it.
func scanDecls(root string) (map[string]*topDecl, error) {
	fset := token.NewFileSet()
	type unit struct {
		decl  *topDecl // nil outside internal/ and for exempt declarations
		names map[string]bool
	}
	var units []unit
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := ""
		if strings.HasPrefix(rel, "internal/") {
			pkg = filepath.ToSlash(filepath.Dir(rel))
		}
		// add records the names body uses and, under internal/, the
		// declaration at n; an empty key marks an exempt one.
		add := func(n ast.Node, declName, key string, body ...ast.Node) {
			u := unit{names: namesIn(body...)}
			if pkg != "" && key != "" {
				u.decl = &topDecl{
					key:  pkg + "." + key,
					name: declName,
					pos:  fmt.Sprintf("%s:%d", rel, fset.Position(n.Pos()).Line),
				}
			}
			units = append(units, u)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					recv := receiverType(d.Recv.List[0].Type)
					key = recv + "." + key
					if stdlibMethods[d.Name.Name] {
						key = ""
					}
				} else if key == "init" || key == "main" {
					key = ""
				}
				add(d, d.Name.Name, key, d.Type, d.Body)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s, s.Name.Name, s.Name.Name, s.TypeParams, s.Type)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							key := id.Name
							if key == "_" {
								key = ""
							}
							add(id, id.Name, key, s.Type, valuesOf(s))
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	namedBy := map[string]int{}
	for _, u := range units {
		for n := range u.names {
			namedBy[n]++
		}
	}
	decls := map[string]*topDecl{}
	for _, u := range units {
		if u.decl == nil {
			continue
		}
		others := namedBy[u.decl.name]
		if u.names[u.decl.name] {
			others--
		}
		u.decl.used = others > 0
		decls[u.decl.key] = u.decl
	}
	return decls, nil
}

// receiverType returns the type name of a method receiver: T for T, *T,
// T[K] and *T[K].
func receiverType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// valuesOf wraps a value spec's initialisers as one node, nil if none.
func valuesOf(s *ast.ValueSpec) ast.Node {
	if len(s.Values) == 0 {
		return nil
	}
	return &ast.CompositeLit{Elts: s.Values}
}

// namesIn returns every identifier the nodes contain, selectors'
// names included.
func namesIn(nodes ...ast.Node) map[string]bool {
	names := map[string]bool{}
	for _, n := range nodes {
		if n == nil || reflect.ValueOf(n).IsNil() {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
	}
	return names
}

// unusedDecls returns the keys of the declarations nothing names, sorted.
func unusedDecls(decls map[string]*topDecl) []string {
	var out []string
	for k, d := range decls {
		if !d.used {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func TestNoDeadDeclarations(t *testing.T) {
	decls, err := scanDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range unusedDecls(decls) {
		if _, ok := deadcodeAllow[k]; !ok {
			t.Errorf("%s (%s): no non-test file names it; give it a caller or delete it", k, decls[k].pos)
		}
	}
	reasons := map[string]bool{accessor: true, oracle: true, helper: true, analysis: true}
	for k, why := range deadcodeAllow {
		switch d := decls[k]; {
		case !reasons[why]:
			t.Errorf("allow-list entry %s: unknown reason %q", k, why)
		case d == nil:
			t.Errorf("allow-list entry %s: no such declaration under internal/", k)
		case d.used:
			t.Errorf("allow-list entry %s (%s): a non-test file now names it; drop the entry", k, d.pos)
		}
	}
	if len(deadcodeAllow) > 30 {
		t.Errorf("allow-list has %d entries, want at most 30", len(deadcodeAllow))
	}
}

func TestDeadDeclarationScanFixture(t *testing.T) {
	decls, err := scanDecls(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	got := unusedDecls(decls)
	want := []string{
		"internal/lib.Kind",      // only its own receivers name it
		"internal/lib.Kind.Self", // it names only itself
		"internal/lib.Unused",    // only a test file names it
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unused = %q, want %q", got, want)
	}
	if len(decls) != 4 {
		t.Errorf("recorded %d declarations, want the 4 of internal/lib that are not exempt", len(decls))
	}
	// Each declaration's verdict, and the position a failure names it by.
	for _, tc := range []struct {
		name string
		pos  string // empty for an exempt method, which is not recorded
		used bool
	}{
		{"Used", "internal/lib/lib.go:5", true},
		{"Unused", "internal/lib/lib.go:8", false},
		{"Kind", "internal/lib/lib.go:11", false},
		{"Kind.String", "", false},
		{"Kind.Self", "internal/lib/lib.go:17", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := decls["internal/lib."+tc.name]
			switch {
			case tc.pos == "":
				if d != nil {
					t.Errorf("exempt method recorded at %s", d.pos)
				}
			case d == nil:
				t.Error("not recorded")
			case d.pos != tc.pos || d.used != tc.used:
				t.Errorf("at %s used=%v, want at %s used=%v", d.pos, d.used, tc.pos, tc.used)
			}
		})
	}
}
