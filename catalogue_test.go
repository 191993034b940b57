package portus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// eventKinds parses the flight-recorder catalogue: every EventKind
// constant in internal/telemetry/events.go, name → dotted kind.
func eventKinds(t *testing.T) map[string]string {
	kinds, _ := eventCatalogue(t)
	return kinds
}

// eventCatalogue parses internal/telemetry/events.go: its EventKind
// constants (name → dotted kind) and, in order, the constant names its
// EventKinds list holds.
func eventCatalogue(t *testing.T) (kinds map[string]string, listed []string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "telemetry", "events.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds = map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if gd.Tok == token.VAR {
				if vs.Names[0].Name == "EventKinds" {
					for _, el := range vs.Values[0].(*ast.CompositeLit).Elts {
						listed = append(listed, el.(*ast.Ident).Name)
					}
				}
				continue
			}
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "EventKind" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("%s: want a string literal value", name.Name)
				}
				kind, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				kinds[name.Name] = kind
			}
		}
	}
	if len(kinds) == 0 {
		t.Fatal("no EventKind constants found in internal/telemetry/events.go")
	}
	return kinds, listed
}

// goFiles parses every non-test Go file of this module outside bench/
// (its own module), testdata and hidden directories.
func goFiles(t *testing.T, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "bench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		visit(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// realWaits lists every non-test Sleep call this module may make, as
// "file: function", with the reason it is a real wait. Sleep is only for
// waiting on something: a backoff, a deadline, an injected delay, a
// pace. A modelled cost — the time a verb, a flush or a serialize pass
// stands for — is spent through sim.Charge, which sleeps under
// simulation only; on a real environment the work itself is the cost.
var realWaits = map[string]string{
	"internal/sim/env.go: Charge":                      "the charge verb: a modelled cost sleeps under simulation only",
	"internal/sim/env.go: RealEnv.Sleep":               "the wall-clock Sleep itself",
	"internal/datapath/engine.go: run.transfer":        "capped backoff before the failed chunks are re-posted",
	"internal/datapath/engine.go: run.flush":           "capped backoff before a failed flush's retry (a batched re-flush's cost rides it under simulation)",
	"internal/client/client.go: Client.backOff":        "BUSY / NO_SPACE retry-after backoff",
	"internal/client/client.go: Client.reconnect":      "redial backoff",
	"internal/client/client.go: Client.send":           "the request deadline",
	"internal/faults/faults.go: faultFabric.verbFault": "an injected slow completion (DelayBy)",
	"internal/train/train.go: Run":                     "trainer compute between checkpoints",
	"internal/experiments/storechurn.go: churnTenant":  "pause before retrying a refused delete",
}

// TestSleepCatalogue keeps modelled costs off the wall clock: every
// non-test use of a Sleep method or function — a call, or a method
// value such as sim.Env.Sleep passed as a charge — must be a real wait
// listed in realWaits, and every entry there must still be in use.
func TestSleepCatalogue(t *testing.T) {
	used := map[string]bool{}
	goFiles(t, func(path string, f *ast.File) {
		path = filepath.ToSlash(path)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := path + ": " + fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if generic, ok := recv.(*ast.IndexExpr); ok {
					recv = generic.X
				}
				site = path + ": " + recv.(*ast.Ident).Name + "." + fn.Name.Name
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
					used[site] = true
					if _, ok := realWaits[site]; !ok {
						t.Errorf("%s: Sleep is for real waits; charge a modelled cost with sim.Charge, or list the wait in realWaits", site)
					}
				}
				return true
			})
		}
	})
	for _, site := range sortedKeys(used) {
		t.Logf("%s: %s", site, realWaits[site])
	}
	for site := range realWaits {
		if !used[site] {
			t.Errorf("realWaits lists %s, which no longer sleeps", site)
		}
	}
}

// notEventKinds are backticked dotted lowercase names README uses for
// something other than a flight-recorder event.
var notEventKinds = map[string]bool{"torch.save": true}

// TestEventKindCatalogue keeps the flight-recorder catalogue honest:
// every declared EventKind is emitted by non-test code, README names
// every kind in full, and README names no kind that does not exist.
func TestEventKindCatalogue(t *testing.T) {
	kinds := eventKinds(t)

	// Every identifier use in non-test code of this module, the
	// EventKinds list aside; each kind's declaration is one, so a kind
	// in use has at least two.
	uses := map[string]int{}
	goFiles(t, func(_ string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if vs, ok := n.(*ast.ValueSpec); ok && vs.Names[0].Name == "EventKinds" {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if _, ok := kinds[id.Name]; ok {
					uses[id.Name]++
				}
			}
			return true
		})
	})

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	declared := map[string]bool{}
	for _, name := range names {
		kind := kinds[name]
		declared[kind] = true
		if uses[name] < 2 {
			t.Errorf("%s (%q) is declared but nothing outside the tests emits it", name, kind)
		}
		if !strings.Contains(string(readme), "`"+kind+"`") {
			t.Errorf("README does not name the event kind `%s`", kind)
		}
	}
	for _, m := range regexp.MustCompile("`([a-z]+\\.[a-z/-]+)`").FindAllStringSubmatch(string(readme), -1) {
		if name := m[1]; !declared[name] && !notEventKinds[name] {
			t.Errorf("README names the event kind `%s`, which telemetry does not declare", name)
		}
	}
}

// registeredFamilies collects every metric family non-test code
// registers: the name a Registry.Counter, Histogram, CounterFunc or
// GaugeFunc call is given as a string literal.
func registeredFamilies(t *testing.T) map[string]bool {
	t.Helper()
	families := map[string]bool{}
	goFiles(t, func(_ string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Histogram", "CounterFunc", "GaugeFunc":
			default:
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(name, "portus_") {
					families[name] = true
				}
			}
			return true
		})
	})
	if len(families) == 0 {
		t.Fatal("no metric family registrations found")
	}
	return families
}

// expandBraces expands each {a,b} group of a metric name into every
// name it stands for.
func expandBraces(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := open + strings.IndexByte(name[open:], '}')
	var out []string
	for _, alt := range strings.Split(name[open+1:end], ",") {
		out = append(out, expandBraces(name[:open]+alt+name[end+1:])...)
	}
	return out
}

// TestMetricCatalogue keeps README's metric table honest: every family
// non-test code registers has a row, the table names no family that
// does not exist, and portus_events_total's kinds (the EventKinds list)
// are exactly the declared EventKind constants.
func TestMetricCatalogue(t *testing.T) {
	families := registeredFamilies(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	tabled := map[string]bool{}
	name := regexp.MustCompile("`(portus_[a-z0-9_{},]+)`")
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `portus_") {
			continue
		}
		cell := strings.Split(line, "|")[1]
		for _, m := range name.FindAllStringSubmatch(cell, -1) {
			for _, fam := range expandBraces(m[1]) {
				tabled[fam] = true
			}
		}
	}
	for _, fam := range sortedKeys(families) {
		if !tabled[fam] {
			t.Errorf("README's metric table has no row for %s", fam)
		}
	}
	for _, fam := range sortedKeys(tabled) {
		if !families[fam] {
			t.Errorf("README's metric table names %s, which nothing registers", fam)
		}
	}

	kinds, listed := eventCatalogue(t)
	var declared []string
	for n := range kinds {
		declared = append(declared, n)
	}
	sort.Strings(declared)
	got := append([]string(nil), listed...)
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(declared, ",") {
		t.Errorf("EventKinds lists %v, want every declared EventKind: %v", listed, declared)
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
