package svtsim

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	"sync"
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
	u := moduleUses(t)

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

// keepFields lists the struct fields outside bench/ that no program
// reads, or that no program sets although their zero value does
// nothing, each with the reason it stays. A key is "pkg.Owner.Field",
// where Owner is the declared type, or the top-level declaration that
// holds an anonymous struct. The test fails once an entry's field gains
// the program reader or writer it lacked.
var keepFields = map[string]string{
	// Test seams: settings only tests make, which reach paths no
	// production run should take.
	"hv.Hypervisor.DropOwnedExit": "the broken reflection the equivalence oracle's tests must catch",
	"check.RunOpts.Modes":         "lets oracle tests run a subset of modes",
	"check.RunOpts.Mutate":        "how oracle tests sabotage one mode's machine",
	"check.RunOpts.Sabotage":      "how oracle tests corrupt a snapshot at a migrate point",
	"server.Server.runHook":       "how server tests block or fail a job on cue",
	"netstack.Flow.Manual":        "the only way to close a receive window, so the zero-window probe stays tested",

	// Counters only tests read, each the evidence a test asserts on.
	"exp.Memo.sims":             "TestPhase1CacheReuse counts every phase-1 lookup",
	"exp.Memo.reuses":           "TestPhase1CacheReuse counts every phase-1 lookup",
	"netstack.Stats.SegsRecv":   "netstack tests check a malformed packet is not counted as a segment",
	"netstack.Stats.OutOfOrder": "netstack tests check reordering reached the out-of-order buffer",
	"netstack.Stats.Malformed":  "netstack tests check a bad header is rejected and counted",

	"exp.FleetReplaySpec.Shards": "the benchmark under bench/ sets it; it goes with the ROADMAP bench/ item",

	// Row labels of transcribed data tables: they say which row is which.
	"report.paperTable1.Stage": "labels the paper's Table 1 rows",
	"workload.txnProfile.name": "labels the TPC-C transaction mix rows",
}

// TestNoIdleFields fails on a struct field declared in a non-test file
// outside bench/ that no non-test file of either module reads, or, when
// it is a scalar, func, pointer, slice, map, channel or interface field,
// that no such file sets: a field nobody reads costs every writer, and
// a setting nobody makes is a branch on a constant. Delete the field
// with whatever only it feeds, or add it to keepFields with its reason.
//
// A field is read when a selector uses its value, calls through it or
// takes its address, when a value of its struct is compared with == or
// !=, used as a map key or encoded as JSON, and, for an embedded field,
// when a selector is promoted through it. It is written by an
// assignment, ++, --, op=, a range clause, by a composite literal that
// keys it or lists every field positionally, by having its address
// taken and by JSON decoding. The target of an assignment, ++, -- or
// op=, an element of the field included, and the field appended to in
// x.f = append(x.f, ...) are writes only. A function that hands one of
// its parameters to encoding/json encodes or decodes its callers'
// arguments. Fields of generic types count through their origin.
func TestNoIdleFields(t *testing.T) {
	for _, b := range moduleUses(t).idleFields(keepFields) {
		t.Error(b)
	}
}

// TestNoIdleFieldsFlagsPlanted runs the field check on a planted package
// whose findings are known.
func TestNoIdleFieldsFlagsPlanted(t *testing.T) {
	const src = `package planted

type T struct {
	WriteOnly int           // flagged: read by no program
	Log       []int         // flagged: appended to, never read
	OnFire    func()        // flagged: called, never set
	Counts    [4]int        // flagged: its elements are only bumped
	Fine      int           // kept below although it is neither
	Keyed     map[K]int     // read and set
	Pair      P[int]        // read
}

type K struct{ A, B int } // read as a map key

type P[V any] struct{ X, Y V } // set positionally, read through an instance

type C struct{ N int } // read by comparison, set by a literal

func Use(t *T) (int, bool) {
	t.WriteOnly = 1
	t.Log = append(t.Log, 1)
	if t.OnFire != nil {
		t.OnFire()
	}
	t.Counts[1]++
	t.Fine = 2
	t.Keyed = map[K]int{}
	t.Pair = P[int]{1, 2}
	return t.Fine + t.Keyed[K{1, 2}] + t.Pair.X + t.Pair.Y, C{N: 1} == C{}
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	u := newUses()
	if err := u.check(listedPackage{ImportPath: "planted", Dir: dir, GoFiles: []string{"planted.go"}}); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(u.idleFields(map[string]string{"planted.T.Fine": "stale"}), "\n")
	for _, want := range []string{
		"planted.T.WriteOnly is read by no program",
		"planted.T.Log is read by no program",
		"planted.T.OnFire is set by no program",
		"planted.T.Counts is read by no program",
		`keepFields["planted.T.Fine"] names no idle field`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "\n") + 1; n != 5 {
		t.Errorf("%d findings, want 5:\n%s", n, got)
	}
}

// idleFields lists the fields the check flags and the keep entries that
// name no flagged field, sorted.
func (u *uses) idleFields(keep map[string]string) []string {
	kept := map[string]bool{}
	var bad []string
	for _, d := range u.fields {
		why := ""
		switch {
		case !u.read[d.v]:
			why = "is read by no program"
		case !u.written[d.v] && mustBeSet(d.v.Type()):
			why = "is set by no program"
		default:
			continue
		}
		if keep[d.key] != "" {
			kept[d.key] = true
		} else {
			bad = append(bad, d.pos+": "+d.key+" "+why+": delete it, or add it to keepFields with a reason")
		}
	}
	for k := range keep {
		if !kept[k] {
			bad = append(bad, fmt.Sprintf("keepFields[%q] names no idle field; drop the entry", k))
		}
	}
	sort.Strings(bad)
	return bad
}

// mustBeSet reports whether a field of type typ does nothing until a
// program sets it. A struct or array field works at its zero value.
func mustBeSet(typ types.Type) bool {
	switch typ.Underlying().(type) {
	case *types.Struct, *types.Array:
		return false
	}
	return true
}

// fieldDecl is one struct field the field check holds to account.
type fieldDecl struct {
	v        *types.Var
	key, pos string
}

// declareFields records the fields of every struct type files declare.
func (u *uses) declareFields(pkg *types.Package, info *types.Info, files []*ast.File) {
	var walk func(n ast.Node, owner string)
	walk = func(n ast.Node, owner string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				walk(n.Type, n.Name.Name)
				return false
			case *ast.StructType:
				for _, f := range n.Fields.List {
					ids := f.Names
					if ids == nil {
						ids = []*ast.Ident{embeddedIdent(f.Type)}
					}
					for _, id := range ids {
						if v, ok := info.Defs[id].(*types.Var); ok && v.Name() != "_" {
							u.fields = append(u.fields, fieldDecl{v, pkg.Name() + "." + owner + "." + v.Name(), u.fset.Position(id.Pos()).String()})
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				owner := d.Name.Name
				if d.Recv != nil {
					owner = recvName(d.Recv.List[0].Type) + "." + owner
				}
				walk(d, owner)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						walk(spec.Type, spec.Name.Name)
					case *ast.ValueSpec:
						walk(spec, spec.Names[0].Name)
					}
				}
			}
		}
	}
}

// embeddedIdent is the identifier an embedded field is named by.
func embeddedIdent(x ast.Expr) *ast.Ident {
	switch e := x.(type) {
	case *ast.StarExpr:
		return embeddedIdent(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return embeddedIdent(e.X)
	case *ast.IndexListExpr:
		return embeddedIdent(e.X)
	}
	return x.(*ast.Ident)
}

// noteFieldUses records which fields files read and write.
func (u *uses) noteFieldUses(info *types.Info, files []*ast.File) {
	field := func(x ast.Expr) (*ast.SelectorExpr, *types.Var) {
		if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return sel, s.Obj().(*types.Var).Origin()
			}
		}
		return nil, nil
	}
	writeOnly := map[*ast.SelectorExpr]bool{}
	write := func(x ast.Expr) {
		for ix, ok := ast.Unparen(x).(*ast.IndexExpr); ok; ix, ok = ast.Unparen(x).(*ast.IndexExpr) {
			x = ix.X
		}
		if sel, v := field(x); v != nil {
			u.written[v] = true
			writeOnly[sel] = true
		}
	}
	isAppend := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		_, builtin := info.Uses[id].(*types.Builtin)
		return ok && builtin && id.Name == "append"
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				u.noteJSONWrapper(info, fd)
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					write(lhs)
					if n.Tok != token.ASSIGN || len(n.Rhs) != len(n.Lhs) {
						continue
					}
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && isAppend(call.Fun) && len(call.Args) > 0 {
						if sel, v := field(call.Args[0]); v != nil && types.ExprString(sel) == types.ExprString(ast.Unparen(lhs)) {
							writeOnly[sel] = true
						}
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, x := range []ast.Expr{n.Key, n.Value} {
						if x != nil {
							write(x)
						}
					}
				}
			case *ast.UnaryExpr:
				if _, v := field(n.X); v != nil && n.Op == token.AND {
					u.written[v] = true
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					u.markFields(info.Types[n.X].Type, u.read, false, map[types.Type]bool{})
				}
			case *ast.CompositeLit:
				st, ok := deref(info.Types[n].Type).Underlying().(*types.Struct)
				if !ok || len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						u.written[st.Field(i).Origin()] = true
					}
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							u.written[v.Origin()] = true
						}
					}
				}
			case *ast.CallExpr:
				u.noteJSON(info, n)
			}
			return true
		})
	}
	for sel, s := range info.Selections {
		typ, path := s.Recv(), s.Index()
		for _, i := range path[:len(path)-1] { // the embedded fields a promoted selector goes through
			st, ok := deref(typ).Underlying().(*types.Struct)
			if !ok {
				break
			}
			u.read[st.Field(i).Origin()] = true
			typ = st.Field(i).Type()
		}
		if s.Kind() == types.FieldVal && !writeOnly[sel] {
			u.read[s.Obj().(*types.Var).Origin()] = true
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			u.markFields(m.Key(), u.read, false, map[types.Type]bool{})
		}
	}
}

// jsonArg says which argument of a call encoding/json encodes or
// decodes into.
type jsonArg struct {
	i      int
	decode bool
}

// jsonCall is the jsonArg of call when it calls an encoding/json entry
// point or a function that passes a parameter to one.
func (u *uses) jsonCall(info *types.Info, call *ast.CallExpr) (jsonArg, bool) {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return jsonArg{}, false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
		switch fn.Name() {
		case "Marshal", "MarshalIndent", "Encode":
			return jsonArg{0, false}, true
		case "Decode":
			return jsonArg{0, true}, true
		case "Unmarshal":
			return jsonArg{1, true}, true
		}
		return jsonArg{}, false
	}
	a, ok := u.jsonWrappers[fn.Origin()]
	return a, ok
}

// noteJSON marks the fields a call encodes as JSON read and those it
// decodes into written.
func (u *uses) noteJSON(info *types.Info, call *ast.CallExpr) {
	if a, ok := u.jsonCall(info, call); ok && a.i < len(call.Args) {
		set := u.read
		if a.decode {
			set = u.written
		}
		u.markFields(info.Types[call.Args[a.i]].Type, set, true, map[types.Type]bool{})
	}
}

// noteJSONWrapper records fd as a JSON wrapper when it passes one of its
// parameters straight to a JSON call.
func (u *uses) noteJSONWrapper(info *types.Info, fd *ast.FuncDecl) {
	params := map[types.Object]int{}
	i := 0
	for _, f := range fd.Type.Params.List {
		for _, id := range f.Names {
			params[info.Defs[id]] = i
			i++
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if a, ok := u.jsonCall(info, call); ok && a.i < len(call.Args) {
				if id, ok := ast.Unparen(call.Args[a.i]).(*ast.Ident); ok {
					if p, ok := params[info.Uses[id]]; ok {
						u.jsonWrappers[info.Defs[fd.Name].(*types.Func)] = jsonArg{p, a.decode}
					}
				}
			}
		}
		return true
	})
}

// markFields marks every field of the structs a value of type typ holds
// inline, and with deep also those it reaches through pointers, slices
// and maps.
func (u *uses) markFields(typ types.Type, set map[*types.Var]bool, deep bool, seen map[types.Type]bool) {
	if typ == nil || seen[typ] {
		return
	}
	seen[typ] = true
	switch t := typ.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			set[t.Field(i).Origin()] = true
			u.markFields(t.Field(i).Type(), set, deep, seen)
		}
	case *types.Array:
		u.markFields(t.Elem(), set, deep, seen)
	case *types.Pointer:
		if deep {
			u.markFields(t.Elem(), set, deep, seen)
		}
	case *types.Slice:
		if deep {
			u.markFields(t.Elem(), set, deep, seen)
		}
	case *types.Map:
		if deep {
			u.markFields(t.Key(), set, deep, seen)
			u.markFields(t.Elem(), set, deep, seen)
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
func goListDeps(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

var (
	modulesOnce sync.Once
	modules     *uses
	modulesErr  error
)

// moduleUses type-checks the non-test files of both modules once per
// test binary and resolves what they use.
func moduleUses(t *testing.T) *uses {
	modulesOnce.Do(func() {
		u := newUses()
		for _, dir := range []string{".", "bench"} {
			pkgs, err := goListDeps(dir)
			if err != nil {
				modulesErr = err
				return
			}
			for _, p := range pkgs {
				if err := u.check(p); err != nil {
					modulesErr = err
					return
				}
			}
		}
		u.resolve()
		modules = u
	})
	if modulesErr != nil {
		t.Fatal(modulesErr)
	}
	return modules
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

	fields        []fieldDecl
	read, written map[*types.Var]bool // by field, generic fields by their origin
	jsonWrappers  map[*types.Func]jsonArg
}

func newUses() *uses {
	u := &uses{
		fset:      token.NewFileSet(),
		exports:   map[string]string{},
		checked:   map[string]*types.Package{},
		used:      map[*types.Func]bool{},
		paramUses: map[*types.TypeParam][]string{},
		typeArgs:  map[*types.TypeParam][]types.Type{},
		read:      map[*types.Var]bool{},
		written:   map[*types.Var]bool{},

		jsonWrappers: map[*types.Func]jsonArg{},
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
		Types:      map[ast.Expr]types.TypeAndValue{},
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

	u.noteFieldUses(info, files)

	if p.ImportPath == "svtsim/bench" {
		return nil
	}
	u.declareFields(pkg, info, files)
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
