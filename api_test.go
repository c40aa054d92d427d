package pperf

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestEveryExportedNameIsReached keeps the surface of internal/ and cmd/
// honest: every top-level func, method, type, var and const declared in a
// non-test file there, exported or not (main, init and Fuzz* aside), must be
// used by some non-test file of the module — the facade, the examples, the
// bench/ harness (whose tests count: `make bench-module` compiles them) —
// outside its own declaration. Uses resolve by type (typeCheck), so only an
// identifier that denotes the name reaches it, never a field or a method of
// another type spelled the same. A method is also live when a type that has
// it, declared or promoted through an embedded field, implements an
// interface declared in the module or one of stdInterfaces.
//
// A name only tests reach is flagged, unless testdata/api-allowlist.txt
// lists it: [mpi] holds the simulated MPI's user-facing routines and
// constants, each with the MPI_ name it models, [reference] the reference
// decoders tests compare against, each with a test or fuzz target that
// does, and [seam] the methods tests read a layer's state through, each with
// a test that reads it. A listed name neither scan flags fails too, so the
// list only shrinks.
func TestEveryExportedNameIsReached(t *testing.T) {
	m := loadModule(t)
	checkAllowlist(t, m, m.unreached,
		"names are reached by nothing but tests (or nothing at all); delete each, "+
			"or move it into a _test.go file and test through the exported API",
		"mpi", "reference", "seam")
}

// TestEveryExportedFieldIsSet keeps the settings of internal/ and cmd/
// honest: every exported field of every exported struct type declared in a
// non-test file there must be written by some non-test file of the module
// (bench/ and its tests count, as above), not counting a write inside a
// top-level Default* function of the field's own package. A field nothing
// else sets holds one value; it is a constant, or it goes. A field only a
// test sets is flagged, unless the [seam] section of
// testdata/api-allowlist.txt lists it with the name of a test that sets it:
// the way that test shrinks a bound or cuts an exact frame.
//
// Writes resolve by type to fields: a key of a composite literal, an unkeyed
// literal (every field), or a selector assigned to, ++/--'d or &'d, which
// writes each field its selector chain goes through (o.Window.From = x
// writes Window too). Embedded fields are skipped.
func TestEveryExportedFieldIsSet(t *testing.T) {
	m := loadModule(t)
	checkAllowlist(t, m, m.unset,
		"exported fields are set by nothing but tests (or nothing at all, or only their package's Default* "+
			"constructor); delete each, or make it a constant",
		"seam")
}

// TestScansResolveNamesByType runs the scans over small modules on which a
// match by identifier gets a name wrong.
func TestScansResolveNamesByType(t *testing.T) {
	for _, tc := range []struct {
		name    string
		srcs    map[string]any
		scan    func(*module) []string
		subject string
		flagged bool
	}{
		{"a field selector reaches no method of its name", map[string]any{
			"internal/mpi/mpi.go": `package mpi
type Status struct{ Source int }
type Request struct{ st Status }
func (rq *Request) Status() Status { return rq.st }
func (rq *Request) Source() int { return rq.st.Source }`,
			"cmd/app/main.go": `package main
import "pperf/internal/mpi"
func main() { println(new(mpi.Request).Status().Source) }`,
		}, scanUnreachedNames, "mpi.Request.Source", true},
		{"another type's method reaches no method of its name", map[string]any{
			"internal/mpi/mpi.go": `package mpi
type Request struct{ done bool }
func (rq *Request) Done() bool { return rq.done }`,
			"cmd/app/main.go": `package main
import ("sync"; "pperf/internal/mpi")
func main() { var wg sync.WaitGroup; wg.Add(1); _ = new(mpi.Request); wg.Done() }`,
		}, scanUnreachedNames, "mpi.Request.Done", true},
		{"a method promoted into a module interface's implementation is live", map[string]any{
			"internal/datasource/datasource.go": `package datasource
type DataSource interface{ CounterTracks() []string; Sync() }
type View struct{}
func (v *View) CounterTracks() []string { return nil }`,
			"internal/session/replay.go": `package session
import "pperf/internal/datasource"
type Replay struct{ *datasource.View }
func (*Replay) Sync() {}
func Open() datasource.DataSource { return &Replay{new(datasource.View)} }`,
			"cmd/app/main.go": `package main
import "pperf/internal/session"
func main() { println(session.Open().CounterTracks()) }`,
		}, scanUnreachedNames, "datasource.View.CounterTracks", false},
		{"a nested selector write sets the field it goes through", map[string]any{
			"internal/perfdb/diff.go": `package perfdb
type Window struct{ From int }
type CompareOptions struct{ Window Window }`,
			"cmd/app/main.go": `package main
import "pperf/internal/perfdb"
func main() { var o perfdb.CompareOptions; o.Window.From = 1; println(o.Window.From) }`,
		}, scanUnsetFields, "perfdb.CompareOptions.Window", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := typeCheck(tc.srcs)
			if err != nil {
				t.Fatal(err)
			}
			if got := slices.Contains(tc.scan(m), tc.subject); got != tc.flagged {
				t.Errorf("%s flagged: %v, want %v", tc.subject, got, tc.flagged)
			}
		})
	}
}

// checkAllowlist fails on a name of flagged that none of the given sections
// of testdata/api-allowlist.txt lists, on an entry of those sections that
// neither of m's scans flags, and on an entry whose note is not what its
// section asks for.
func checkAllowlist(t *testing.T, m *module, flagged []string, why string, sections ...string) {
	t.Helper()
	allow := readAPIAllowlist(t, filepath.Join("testdata", "api-allowlist.txt"))
	var unlisted []string
	for _, name := range flagged {
		if e, ok := allow[name]; !ok || !slices.Contains(sections, e.section) {
			unlisted = append(unlisted, name)
		}
	}
	if len(unlisted) > 0 {
		t.Errorf("%d %s:\n  %s", len(unlisted), why, strings.Join(unlisted, "\n  "))
	}

	live := map[string]bool{}
	for _, name := range append(slices.Clip(m.unreached), m.unset...) {
		live[name] = true
	}
	for name, e := range allow {
		switch {
		case !slices.Contains(sections, e.section):
		case !live[name]:
			t.Errorf("api-allowlist.txt:%d: %s is no longer flagged (or no longer exists); delete the entry", e.line, name)
		case e.section == "mpi" && (!strings.HasPrefix(name, "mpi.") || !strings.HasPrefix(e.note, "MPI_")):
			t.Errorf("api-allowlist.txt:%d: [mpi] holds internal/mpi names, each followed by the MPI_ routine or constant it models; got %s %q", e.line, name, e.note)
		case e.section == "reference" && !m.tests[e.note]:
			t.Errorf("api-allowlist.txt:%d: [reference] entry %s must name a test that compares against it; no test %q", e.line, name, e.note)
		case e.section == "seam" && (!strings.HasPrefix(e.note, "Test") || !m.tests[e.note]):
			t.Errorf("api-allowlist.txt:%d: [seam] entry %s must name the test that sets or reads it; no test %q", e.line, name, e.note)
		}
	}
}

// stdInterfaces are the standard library's interfaces through which it calls
// methods no module code names. typeCheck adds them to every module as the
// package pperf/std, so a type implementing one keeps its methods live as a
// type implementing a module interface does.
const stdInterfaces = `package std
import ("fmt"; "io"; "sort")
type (
	_ interface{ fmt.Stringer }
	_ interface{ error }
	_ interface{ Unwrap() error }
	_ interface{ sort.Interface }
	_ interface{ io.Reader }
	_ interface{ io.Writer }
	_ interface{ io.Closer }
)`

// module is a set of type-checked packages and what the scans need of them.
type module struct {
	info  *types.Info
	pkgs  []modulePkg
	tests map[string]bool // Test and Fuzz functions of every test file
	// What scanUnreachedNames and scanUnsetFields flag (loadModuleOnce).
	unreached, unset []string
}

// modulePkg is one package of a module. name is how the scans report it: its
// directory without the internal/ prefix. Its declarations are checked when
// it is under internal/ or cmd/.
type modulePkg struct {
	name    string
	checked bool
	files   []*ast.File
	types   *types.Package
}

// typeCheck parses srcs (module-relative path -> source, or nil to read the
// file) and stdInterfaces, and type-checks each directory as the package
// "pperf/" + dir ("pperf" for the root). The standard library's packages are
// read from their compiled export data, located by one `go list`.
func typeCheck(srcs map[string]any) (*module, error) {
	srcs["std/std.go"] = stdInterfaces
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{}
	list := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for p, src := range srcs {
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		dirs[path.Dir(p)] = append(dirs[path.Dir(p)], f)
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); ip != "pperf" && !strings.HasPrefix(ip, "pperf/") {
				list = append(list, ip) // go list lists a repeated path once
			}
		}
	}
	out, err := exec.Command("go", list...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ip, file, _ := strings.Cut(line, " ")
		exports[ip] = file
	}
	std := importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) { return os.Open(exports[ip]) })

	m := &module{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	done := map[string]*types.Package{}
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if ip != "pperf" && !strings.HasPrefix(ip, "pperf/") {
			return std.Import(ip)
		}
		dir := path.Join(".", strings.TrimPrefix(ip, "pperf"))
		if done[dir] != nil {
			return done[dir], nil
		}
		tp, err := (&types.Config{Importer: imp}).Check(ip, fset, dirs[dir], m.info)
		if err != nil {
			return nil, err
		}
		done[dir] = tp
		checked := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		m.pkgs = append(m.pkgs, modulePkg{strings.TrimPrefix(dir, "internal/"), checked, dirs[dir], tp})
		return tp, nil
	}
	for dir := range dirs {
		if _, err := imp(path.Join("pperf", dir)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadModuleOnce type-checks every package of the module (dot-directories
// and testdata aside) from its non-test files, bench/'s with its tests, and
// runs both scans on it, once for all the tests of this file.
var loadModuleOnce = sync.OnceValues(func() (*module, error) {
	srcs := map[string]any{}
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		isTest := strings.HasSuffix(p, "_test.go")
		if strings.HasSuffix(p, ".go") && (!isTest || strings.HasPrefix(p, "bench/")) {
			srcs[p] = nil
		}
		if !isTest {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, dl := range f.Decls {
			if fn, ok := dl.(*ast.FuncDecl); ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m, err := typeCheck(srcs)
	if err != nil {
		return nil, err
	}
	m.tests = tests
	m.unreached, m.unset = scanUnreachedNames(m), scanUnsetFields(m)
	return m, nil
})

func loadModule(t *testing.T) *module {
	t.Helper()
	m, err := loadModuleOnce()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scanUnreachedNames returns the sorted top-level names (pkg.Name or
// pkg.Type.Method, pkg being the directory under internal/, or cmd/NAME)
// declared in a checked package that nothing in the module uses outside
// their own declaration.
func scanUnreachedNames(m *module) []string {
	type decl struct {
		report   string // pkg.Name or pkg.Recv.Name
		pos, end token.Pos
		reached  bool
	}
	decls := map[types.Object]*decl{}
	for _, p := range m.pkgs {
		add := func(id *ast.Ident, node ast.Node) {
			obj := m.info.Defs[id]
			if !p.checked || obj == nil || id.Name == "_" || id.Name == "main" || id.Name == "init" || strings.HasPrefix(id.Name, "Fuzz") {
				return
			}
			report := id.Name
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				recv := sig.Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				report = recv.(*types.Named).Obj().Name() + "." + report
			}
			decls[obj] = &decl{p.name + "." + report, node.Pos(), node.End(), false}
		}
		for _, f := range p.files {
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					add(dl.Name, dl)
				case *ast.GenDecl:
					for _, spec := range dl.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s)
							}
						}
					}
				}
			}
		}
	}

	use := func(obj types.Object, at token.Pos) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // the method a generic type's instance calls
		}
		if d := decls[obj]; d != nil && (at < d.pos || at >= d.end) {
			d.reached = true
		}
	}
	for id, obj := range m.info.Uses {
		use(obj, id.Pos())
	}
	// A type implementing an interface of the module (stdInterfaces among
	// them) keeps alive the methods it implements it with.
	var ifaces []*types.Interface
	for e, tv := range m.info.Types {
		if _, ok := e.(*ast.InterfaceType); ok {
			if it := tv.Type.Underlying().(*types.Interface); it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, obj := range m.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				fn, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
				use(fn, token.NoPos)
			}
		}
	}

	var flagged []string
	for _, d := range decls {
		if !d.reached {
			flagged = append(flagged, d.report)
		}
	}
	sort.Strings(flagged)
	return flagged
}

// scanUnsetFields returns the sorted exported fields (pkg.Type.Field) of the
// exported struct types declared in a checked package that nothing in the
// module writes outside a top-level Default* function of the field's
// package.
func scanUnsetFields(m *module) []string {
	fields := map[*types.Var]string{} // field -> pkg.Type.Field
	for _, p := range m.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !p.checked || !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if fd := st.Field(i); fd.Exported() && !fd.Embedded() && fields[fd] == "" {
						fields[fd] = p.name + "." + name + "." + fd.Name()
					}
				}
			}
		}
	}

	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, dl := range f.Decls {
				fn, ok := dl.(*ast.FuncDecl)
				dflt := ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Default")
				set := func(obj types.Object) {
					if v, ok := obj.(*types.Var); ok && (!dflt || v.Pkg() != p.types) {
						delete(fields, v.Origin())
					}
				}
				setSelectors := func(e ast.Expr) {
					for sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok; sel, ok = ast.Unparen(sel.X).(*ast.SelectorExpr) {
						set(m.info.Uses[sel.Sel])
					}
				}
				ast.Inspect(dl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							setSelectors(lhs)
						}
					case *ast.IncDecStmt:
						setSelectors(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							setSelectors(n.X)
						}
					case *ast.CompositeLit:
						typ := m.info.TypeOf(n)
						if ptr, ok := typ.(*types.Pointer); ok {
							typ = ptr.Elem() // an elided &T in a []*T literal
						}
						st, ok := typ.Underlying().(*types.Struct)
						for i, el := range n.Elts {
							if kv, isKey := el.(*ast.KeyValueExpr); ok && isKey {
								set(m.info.Uses[kv.Key.(*ast.Ident)])
							} else if ok {
								set(st.Field(i))
							}
						}
					}
					return true
				})
			}
		}
	}

	flagged := make([]string, 0, len(fields))
	for _, report := range fields {
		flagged = append(flagged, report)
	}
	sort.Strings(flagged)
	return flagged
}

// allowEntry is one line of testdata/api-allowlist.txt.
type allowEntry struct {
	section string // "mpi", "reference" or "seam"
	note    string // the MPI_ name modelled, or the test comparing against it, setting it or reading it
	line    int
}

// readAPIAllowlist parses the allowlist: "[section]" headers, then one
// "pkg.Name note" line per entry; blank lines and #-comments are skipped.
func readAPIAllowlist(t *testing.T, path string) map[string]allowEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]allowEntry{}
	section := ""
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case line == "[mpi]" || line == "[reference]" || line == "[seam]":
			section = strings.Trim(line, "[]")
		default:
			fields := strings.Fields(line)
			if section == "" || len(fields) != 2 {
				t.Fatalf("%s:%d: want \"pkg.Name note\" under [mpi], [reference] or [seam], got %q", path, n, line)
			}
			if _, dup := allow[fields[0]]; dup {
				t.Fatalf("%s:%d: %s listed twice", path, n, fields[0])
			}
			allow[fields[0]] = allowEntry{section, fields[1], n}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}
