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
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "telemetry", "events.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
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
	return kinds
}

// notEventKinds are backticked dotted lowercase names README uses for
// something other than a flight-recorder event.
var notEventKinds = map[string]bool{"torch.save": true}

// TestEventKindCatalogue keeps the flight-recorder catalogue honest:
// every declared EventKind is emitted by non-test code, README names
// every kind in full, and README names no kind that does not exist.
func TestEventKindCatalogue(t *testing.T) {
	kinds := eventKinds(t)

	// Every identifier use in non-test code of this module; each kind's
	// declaration is one, so a kind in use has at least two.
	uses := map[string]int{}
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, ok := kinds[id.Name]; ok {
					uses[id.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

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
	for _, m := range regexp.MustCompile("`([a-z]+\\.[a-z/]+)`").FindAllStringSubmatch(string(readme), -1) {
		if name := m[1]; !declared[name] && !notEventKinds[name] {
			t.Errorf("README names the event kind `%s`, which telemetry does not declare", name)
		}
	}
}
