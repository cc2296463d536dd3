package svtsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepExports lists the exported functions and methods outside bench/
// and this package that no non-test file names, each with the reason it
// stays. A key is either "pkg.Func" or "pkg.Type.Method" — the test
// fails once such an entry gains a non-test caller, so the list never
// outlives its reasons — or a bare method name that a standard-library
// interface asks for.
var keepExports = map[string]string{
	"ept.Table.Unmap":                      "half of the map API that FuzzTableOps checks",
	"blk.Disk.ReadSync":                    "how tests read a disk's contents",
	"sim.Engine.Drain":                     "the engine test driver six packages share",
	"exp.Session.CPUIDNestedNoShadowing":   "DESIGN §4 ablation reported in EXPERIMENTS.md",
	"exp.Session.CPUIDNestedWithThunkRegs": "DESIGN §4 ablation reported in EXPERIMENTS.md",

	"Len":         "sort.Interface / heap.Interface",
	"Less":        "sort.Interface / heap.Interface",
	"Swap":        "sort.Interface / heap.Interface",
	"Push":        "heap.Interface",
	"Pop":         "heap.Interface",
	"String":      "fmt.Stringer",
	"Error":       "error",
	"Unwrap":      "errors.Unwrap",
	"Write":       "io.Writer / http.ResponseWriter",
	"WriteHeader": "http.ResponseWriter",
	"Header":      "http.ResponseWriter",
	"Flush":       "http.Flusher",
	"ServeHTTP":   "http.Handler",
}

// TestNoTestOnlyExports fails when an exported function or method
// outside bench/ and the root package is named by no non-test Go file of
// either module: an API only tests call is dead weight in the program.
// Delete such a name, move it into the _test.go file that needs it, or
// add it to keepExports with its reason. The check is by name, like a
// word grep: a function counts as used when any non-test identifier has
// its name, a method when any non-test selector x.Name does.
func TestNoTestOnlyExports(t *testing.T) {
	used := map[string]bool{}     // identifiers, for functions
	selected := map[string]bool{} // selector names x.Name, for methods
	type decl struct {
		key, name, pos string
		method         bool
	}
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		checked := dir != "." && dir != "bench" && !strings.HasPrefix(dir, "bench/")
		declared := map[*ast.Ident]bool{}
		add := func(id *ast.Ident, key string, method bool) {
			declared[id] = true
			if checked && id.IsExported() {
				decls = append(decls, decl{f.Name.Name + "." + key, id.Name, fset.Position(id.Pos()).String(), method})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				key := n.Name.Name
				if n.Recv != nil {
					key = recvName(n.Recv.List[0].Type) + "." + key
				}
				add(n.Name, key, n.Recv != nil)
			case *ast.TypeSpec:
				if it, ok := n.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							add(id, n.Name.Name+"."+id.Name, true)
						}
					}
				}
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	var bad []string
	for _, d := range decls {
		if selected[d.name] || !d.method && used[d.name] {
			continue
		}
		if keepExports[d.key] != "" {
			kept[d.key] = true
		} else if keepExports[d.name] == "" {
			bad = append(bad, d.pos+": "+d.key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s has no non-test caller: delete it, move it into a _test.go file, or add it to keepExports with a reason", b)
	}
	for k := range keepExports {
		if strings.Contains(k, ".") && !kept[k] {
			t.Errorf("keepExports[%q] names nothing test-only; drop the entry", k)
		}
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
