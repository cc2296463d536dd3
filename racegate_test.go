package svtsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRaceSkippedTestsRunWithoutRace fails when a test that skips under
// -race would run in no CI step. CI's race step skips every test that
// checks race.Enabled, and only its non-race allocation step runs them,
// filtered by `go test -run <pattern> ./internal/...`. So every such
// test must live under internal/ and match that step's pattern, read
// here from the workflow itself. A non-test function that checks
// race.Enabled would hide which tests skip, so it fails too.
func TestRaceSkippedTestsRunWithoutRace(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^\s*run: go test -count=1 -run '([^']+)' \./internal/\.\.\.$`).FindSubmatch(ci)
	if m == nil {
		t.Fatal("ci.yml has no `go test -count=1 -run '<pattern>' ./internal/...` step")
	}
	filter, err := regexp.Compile(string(m[1]))
	if err != nil {
		t.Fatalf("ci.yml's non-race filter %q: %v", m[1], err)
	}

	found := 0
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		race := raceImportName(f)
		if race == "" {
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !refersTo(fn, race, "Enabled") {
				continue
			}
			found++
			name := fn.Name.Name
			switch {
			case fn.Recv != nil || !strings.HasPrefix(name, "Test"):
				t.Errorf("%s: %s checks race.Enabled but is not a test; check it in each test that skips", path, name)
			case !strings.HasPrefix(filepath.ToSlash(path), "internal/"):
				t.Errorf("%s: %s skips under -race, but the non-race step runs only ./internal/...", path, name)
			case !filter.MatchString(name):
				t.Errorf("%s: %s skips under -race, but the non-race step's -run %q does not match it", path, name, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no test checks race.Enabled; the walk found nothing to hold to the filter")
	}
}

// raceImportName is the name f imports svtsim/internal/race under, or "".
func raceImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "svtsim/internal/race" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "race"
		}
	}
	return ""
}

// refersTo reports whether fn's body mentions pkg.name.
func refersTo(fn *ast.FuncDecl, pkg, name string) bool {
	hit := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				hit = true
			}
		}
		return !hit
	})
	return hit
}
