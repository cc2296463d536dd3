package svtsim

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepExports lists the exported functions and methods outside bench/
// that no non-test file uses, each with the reason it stays. A key is
// either "pkg.Func" or "pkg.Type.Method" — the test fails once such an
// entry gains a non-test caller, so the list never outlives its reasons
// — or a bare method name that a standard-library interface asks for.
var keepExports = map[string]string{
	"blk.Disk.ReadSync":                    "how tests read a disk's contents",
	"sim.Engine.Drain":                     "the engine test driver six packages share",
	"exp.Session.CPUIDNestedNoShadowing":   "DESIGN §4 ablation reported in EXPERIMENTS.md",
	"exp.Session.CPUIDNestedWithThunkRegs": "DESIGN §4 ablation reported in EXPERIMENTS.md",
	"qcheck.Config":                        "the quick.Config the property tests of ten packages share",
	"allocs.PerRun":                        "the exact malloc mean the allocation tests of eight packages share",

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
// outside bench/, the root facade included, is used by no non-test Go
// file of either module (cmd/, examples/ and bench/ count as callers):
// an API only tests call is dead weight in the program.
// Delete such a name, move it into the _test.go file that needs it, or
// add it to keepExports with its reason.
//
// Names resolve by object, not by spelling: the non-test files of both
// modules are type-checked, with standard-library imports read from the
// export data `go list -export` names. A function counts as used when a
// non-test file refers to that very function. A method counts as used
// when a non-test file refers to it, when its type implements an
// interface whose method of that name a non-test file refers to, or
// when its type instantiates a type parameter the method is called on.
func TestNoTestOnlyExports(t *testing.T) {
	u := newUses()
	for _, dir := range []string{".", "bench"} {
		for _, p := range goListDeps(t, dir) {
			if err := u.check(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	u.resolve()

	kept := map[string]bool{}
	var bad []string
	for _, d := range u.decls {
		if u.used[d.fn] {
			continue
		}
		if keepExports[d.key] != "" {
			kept[d.key] = true
		} else if keepExports[d.fn.Name()] == "" {
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

// listedPackage is the part of `go list -json` output the check reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// goListDeps lists the packages of the module in dir and everything they
// import, dependencies first.
func goListDeps(t *testing.T, dir string) []listedPackage {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// exportDecl is one exported function or method the check holds to
// account.
type exportDecl struct {
	fn       *types.Func
	key, pos string
}

// uses type-checks module packages from source, in dependency order, so
// a function is one object in every package that refers to it.
type uses struct {
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	checked map[string]*types.Package
	gc      types.Importer

	decls     []exportDecl
	used      map[*types.Func]bool
	named     []types.Type                      // non-generic named types
	ifaceUses []*types.Func                     // interface methods referred to
	paramUses map[*types.TypeParam][]string     // methods called on a type parameter
	typeArgs  map[*types.TypeParam][]types.Type // what each type parameter is instantiated with
}

func newUses() *uses {
	u := &uses{
		fset:      token.NewFileSet(),
		exports:   map[string]string{},
		checked:   map[string]*types.Package{},
		used:      map[*types.Func]bool{},
		paramUses: map[*types.TypeParam][]string{},
		typeArgs:  map[*types.TypeParam][]types.Type{},
	}
	u.gc = importer.ForCompiler(u.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(u.exports[path]) })
	return u
}

// Import serves checked module packages and standard-library export data.
func (u *uses) Import(path string) (*types.Package, error) {
	if p := u.checked[path]; p != nil {
		return p, nil
	}
	return u.gc.Import(path)
}

// check records one listed package: its export data when it is part of
// the standard library, else what its non-test files declare and use.
func (u *uses) check(p listedPackage) error {
	u.exports[p.ImportPath] = p.Export
	if p.Standard || u.checked[p.ImportPath] != nil {
		return nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(u.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := (&types.Config{Importer: u}).Check(p.ImportPath, u.fset, files, info)
	if err != nil {
		return err
	}
	u.checked[p.ImportPath] = pkg

	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				u.named = append(u.named, n)
			}
		}
	}
	// A method called on a type parameter is used by the type arguments
	// the parameter is instantiated with, not by every type that
	// satisfies its constraint.
	onParam := map[*ast.Ident]bool{}
	for sel, s := range info.Selections {
		if tp, ok := deref(s.Recv()).(*types.TypeParam); ok && s.Kind() == types.MethodVal {
			u.paramUses[tp] = append(u.paramUses[tp], sel.Sel.Name)
			onParam[sel.Sel] = true
		}
	}
	for id, inst := range info.Instances {
		var params *types.TypeParamList
		switch typ := info.Uses[id].Type().(type) {
		case *types.Signature:
			params = typ.TypeParams()
		case *types.Named:
			params = typ.TypeParams()
		}
		for i := 0; params != nil && i < params.Len(); i++ {
			u.typeArgs[params.At(i)] = append(u.typeArgs[params.At(i)], inst.TypeArgs.At(i))
		}
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			u.used[fn.Origin()] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !onParam[id] {
				u.ifaceUses = append(u.ifaceUses, fn)
			}
		}
	}

	if p.ImportPath == "svtsim/bench" {
		return nil
	}
	add := func(id *ast.Ident, key string) {
		if fn, ok := info.Defs[id].(*types.Func); ok && id.IsExported() {
			u.decls = append(u.decls, exportDecl{fn, pkg.Name() + "." + key, u.fset.Position(id.Pos()).String()})
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				key := n.Name.Name
				if n.Recv != nil {
					key = recvName(n.Recv.List[0].Type) + "." + key
				}
				add(n.Name, key)
			case *ast.TypeSpec:
				if it, ok := n.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							add(id, n.Name.Name+"."+id.Name)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// resolve marks the methods that interface calls and calls on type
// parameters reach once every package is checked.
func (u *uses) resolve() {
	for _, m := range u.ifaceUses {
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, typ := range u.named {
			if types.Implements(typ, iface) || !types.IsInterface(typ) && types.Implements(types.NewPointer(typ), iface) {
				u.useMethod(typ, m.Name())
			}
		}
	}
	for tp, names := range u.paramUses {
		for _, name := range names {
			u.instantiate(tp, name, map[*types.TypeParam]bool{})
		}
	}
}

// instantiate marks method name of every concrete type tp is
// instantiated with, following type parameters passed on as arguments.
func (u *uses) instantiate(tp *types.TypeParam, name string, seen map[*types.TypeParam]bool) {
	if seen[tp] {
		return
	}
	seen[tp] = true
	for _, arg := range u.typeArgs[tp] {
		if inner, ok := arg.(*types.TypeParam); ok {
			u.instantiate(inner, name, seen)
		} else {
			u.useMethod(arg, name)
		}
	}
}

// useMethod marks the method name of typ, or of *typ, as used.
func (u *uses) useMethod(typ types.Type, name string) {
	obj, _, _ := types.LookupFieldOrMethod(typ, true, nil, name)
	if fn, ok := obj.(*types.Func); ok {
		u.used[fn.Origin()] = true
	}
}

// deref strips one pointer from typ.
func deref(typ types.Type) types.Type {
	if p, ok := typ.(*types.Pointer); ok {
		return p.Elem()
	}
	return typ
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
