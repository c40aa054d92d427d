package pperf

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
// referenced by some non-test file of the module — the facade, the examples,
// the bench/ harness (whose tests count: `make bench-module` compiles them) —
// outside its own declaration. A name only tests reach is flagged, unless
// testdata/api-allowlist.txt lists it: its [mpi] section holds the simulated
// MPI's user-facing routines and constants, each with the MPI_ name it
// models, and its [reference] section the reference decoders tests compare
// against, each with a test or fuzz target that does. A listed name the scan
// no longer flags fails too, so the list only shrinks.
//
// Names match by identifier, so the scan can over-count references (a
// field or a method of another type with the same name keeps a name alive)
// but never flags a live one. A method is always live when an interface
// declared in the module has a method of its name, or when it is one of the
// standard library's interface methods below.
func TestEveryExportedNameIsReached(t *testing.T) {
	allow := checkAllowlist(t, scanUnreachedNames(t),
		"names are reached by nothing but tests (or nothing at all); delete each, "+
			"or move it into a _test.go file and test through the exported API",
		"mpi", "reference")
	tests := parseModule(t).tests
	for name, e := range allow {
		switch {
		case e.section == "mpi" && (!strings.HasPrefix(name, "mpi.") || !strings.HasPrefix(e.note, "MPI_")):
			t.Errorf("api-allowlist.txt:%d: [mpi] holds internal/mpi names, each followed by the MPI_ routine or constant it models; got %s %q", e.line, name, e.note)
		case e.section == "reference" && !tests[e.note]:
			t.Errorf("api-allowlist.txt:%d: [reference] entry %s must name a test that compares against it; no test %q", e.line, name, e.note)
		}
	}
}

// TestEveryExportedFieldIsSet keeps the settings of internal/ and cmd/
// honest: every exported field of every exported struct type declared in a
// non-test file there must be written by some non-test file of the module
// (bench/ and its tests count, as above), not counting a write inside a
// top-level Default* function of the field's own package. A field nothing
// else sets holds one value; it is a constant, or it goes. A field only a
// test sets is flagged, unless the [seam] section of
// testdata/api-allowlist.txt lists it with the name of a test that sets it:
// the way that test shrinks a bound or cuts an exact frame. A listed field
// the scan no longer flags fails too, so the list only shrinks.
//
// A write is a key of a composite literal whose type names the field's
// struct, an unkeyed literal of that struct, or x.F as the target of an
// assignment, ++/-- or &. Types resolve by name, following type aliases
// (the facade's SuiteOptions is pperfmark.RunOptions), with no type checker,
// so a selector write, or a key of a literal whose type the scan cannot
// name, counts for every struct with a field of that name: the scan can
// miss an unset field, never flag a set one. Embedded fields are skipped.
func TestEveryExportedFieldIsSet(t *testing.T) {
	allow := checkAllowlist(t, scanUnsetFields(t),
		"exported fields are set by nothing but tests (or nothing at all, or only their package's Default* "+
			"constructor); delete each, or make it a constant",
		"seam")
	tests := parseModule(t).tests
	for name, e := range allow {
		if !strings.HasPrefix(e.note, "Test") || !tests[e.note] {
			t.Errorf("api-allowlist.txt:%d: [seam] entry %s must name the test that sets it; no test %q", e.line, name, e.note)
		}
	}
}

// checkAllowlist fails on a flagged name that none of the given sections of
// testdata/api-allowlist.txt lists, and on an entry of those sections the
// scan no longer flags. It returns those sections' entries.
func checkAllowlist(t *testing.T, flagged []string, why string, sections ...string) map[string]allowEntry {
	t.Helper()
	allow := readAPIAllowlist(t, filepath.Join("testdata", "api-allowlist.txt"))
	for name, e := range allow {
		if !slices.Contains(sections, e.section) {
			delete(allow, name)
		}
	}

	var unlisted []string
	live := map[string]bool{}
	for _, name := range flagged {
		live[name] = true
		if _, ok := allow[name]; !ok {
			unlisted = append(unlisted, name)
		}
	}
	if len(unlisted) > 0 {
		t.Errorf("%d %s:\n  %s", len(unlisted), why, strings.Join(unlisted, "\n  "))
	}
	for name, e := range allow {
		if !live[name] {
			t.Errorf("api-allowlist.txt:%d: %s is no longer flagged (or no longer exists); delete the entry", e.line, name)
		}
	}
	return allow
}

// stdInterfaceMethods are methods the standard library calls through its
// own interfaces (fmt.Stringer, error, sort.Interface, io.Reader/Writer/
// Closer, errors.Unwrap), which no identifier in the module spells.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Len": true, "Less": true,
	"Swap": true, "Read": true, "Write": true, "Close": true,
}

// moduleFile is one parsed .go file of the module.
type moduleFile struct {
	path   string // slash-separated, relative to the module root
	pkg    string // its directory, without the internal/ prefix
	f      *ast.File
	isTest bool
}

// counts reports whether the file's uses keep a name alive: every non-test
// file, and the tests of bench/, which is compiled and tested against the
// tree as a module of its own, so its tests pin names like any other caller.
func (mf moduleFile) counts() bool {
	return !mf.isTest || strings.HasPrefix(mf.path, "bench/")
}

// checked reports whether the file's declarations are scanned.
func (mf moduleFile) checked() bool {
	return !mf.isTest && (strings.HasPrefix(mf.path, "internal/") || strings.HasPrefix(mf.path, "cmd/"))
}

// parsedModule is every .go file of the module (dot-directories and
// testdata aside), parsed once for all the scans of this file.
type parsedModule struct {
	files []moduleFile
	tests map[string]bool // Test and Fuzz functions
	err   error
}

var parseModuleOnce = sync.OnceValue(func() parsedModule {
	m := parsedModule{tests: map[string]bool{}}
	fset := token.NewFileSet()
	m.err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		mf := moduleFile{p, strings.TrimPrefix(path.Dir(p), "internal/"), f, strings.HasSuffix(p, "_test.go")}
		if mf.isTest {
			for _, dl := range f.Decls {
				fn, ok := dl.(*ast.FuncDecl)
				if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
					m.tests[fn.Name.Name] = true
				}
			}
		}
		m.files = append(m.files, mf)
		return nil
	})
	return m
})

func parseModule(t *testing.T) parsedModule {
	t.Helper()
	m := parseModuleOnce()
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m
}

// scanUnreachedNames returns the sorted top-level names (pkg.Name or
// pkg.Type.Method, pkg being the directory under internal/, or cmd/NAME)
// declared in a checked file that no counted file references outside their
// own declaration.
func scanUnreachedNames(t *testing.T) []string {
	t.Helper()
	type decl struct {
		name     string // identifier
		report   string // pkg.Name or pkg.Recv.Name
		method   bool
		pos, end token.Pos
	}
	var decls []decl
	refs := map[string][]token.Pos{} // identifier -> reference positions
	ifaceMethods := map[string]bool{}

	for _, mf := range parseModule(t).files {
		if !mf.counts() {
			continue
		}
		// Identifiers that declare rather than reference: top-level names,
		// struct fields, interface methods, receiver types.
		declIdents := map[*ast.Ident]bool{}
		ast.Inspect(mf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					for _, id := range fl.Names {
						declIdents[id] = true
					}
				}
			case *ast.InterfaceType:
				for _, fl := range n.Methods.List {
					for _, id := range fl.Names {
						declIdents[id] = true
						ifaceMethods[id.Name] = true
					}
				}
			}
			return true
		})

		add := func(id *ast.Ident, report string, method bool, node ast.Node) {
			declIdents[id] = true
			if mf.checked() && id.Name != "_" && id.Name != "main" && id.Name != "init" && !strings.HasPrefix(id.Name, "Fuzz") {
				decls = append(decls, decl{id.Name, mf.pkg + "." + report, method, node.Pos(), node.End()})
			}
		}
		for _, dl := range mf.f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				if dl.Recv == nil {
					add(dl.Name, dl.Name.Name, false, dl)
					continue
				}
				recv := receiverType(dl.Recv.List[0].Type)
				declIdents[recv] = true
				add(dl.Name, recv.Name+"."+dl.Name.Name, true, dl)
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name, false, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, id.Name, false, s)
						}
					}
				}
			}
		}
		ast.Inspect(mf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
	}

	var flagged []string
	for _, d := range decls {
		if d.method && (ifaceMethods[d.name] || stdInterfaceMethods[d.name]) {
			continue
		}
		reached := false
		for _, p := range refs[d.name] {
			if p < d.pos || p >= d.end {
				reached = true
				break
			}
		}
		if !reached {
			flagged = append(flagged, d.report)
		}
	}
	sort.Strings(flagged)
	return flagged
}

// scanUnsetFields returns the sorted exported fields (pkg.Type.Field) of the
// exported struct types declared in a checked file that no counted file
// writes outside a top-level Default* function of the field's package.
func scanUnsetFields(t *testing.T) []string {
	t.Helper()
	files := parseModule(t).files

	type field struct {
		pkg, report string
		set         bool
	}
	structs := map[string]map[string]*field{} // pkg.Type -> its exported fields by name
	byName := map[string][]*field{}           // field name -> fields of that name
	for _, mf := range files {
		if !mf.checked() {
			continue
		}
		for _, dl := range mf.f.Decls {
			gd, ok := dl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typ := mf.pkg + "." + ts.Name.Name
				structs[typ] = map[string]*field{}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fd := &field{mf.pkg, typ + "." + id.Name, false}
							structs[typ][id.Name] = fd
							byName[id.Name] = append(byName[id.Name], fd)
						}
					}
				}
			}
		}
	}

	// typeName names the type e denotes in mf ("" when the scan cannot
	// tell), and whether e is a type of the module at all.
	typeName := func(mf moduleFile, imports map[string]string, e ast.Expr) (string, bool) {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.Ident:
				return mf.pkg + "." + x.Name, true
			case *ast.SelectorExpr:
				id, ok := x.X.(*ast.Ident)
				if !ok {
					return "", true
				}
				pkg, ours := imports[id.Name]
				return pkg + "." + x.Sel.Name, ours
			default:
				return "", false
			}
		}
	}
	imports := make([]map[string]string, len(files)) // per file: local name -> pkg, for the module's own packages
	aliases := map[string]string{}                   // pkg.Alias -> pkg.Type, the facade's among them
	for i, mf := range files {
		if !mf.counts() {
			continue
		}
		imports[i] = map[string]string{}
		for _, imp := range mf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "pperf" && !strings.HasPrefix(p, "pperf/") {
				continue
			}
			name, dir := path.Base(p), "."
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if p != "pperf" {
				dir = strings.TrimPrefix(strings.TrimPrefix(p, "pperf/"), "internal/")
			}
			imports[i][name] = dir
		}
		for _, dl := range mf.f.Decls {
			if gd, ok := dl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
						if to, ours := typeName(mf, imports[i], ts.Type); ours && to != "" {
							aliases[mf.pkg+"."+ts.Name.Name] = to
						}
					}
				}
			}
		}
	}

	for i, mf := range files {
		if !mf.counts() {
			continue
		}
		for _, dl := range mf.f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			dflt := ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Default")
			mark := func(fd *field) {
				if fd != nil && (!dflt || fd.pkg != mf.pkg) {
					fd.set = true
				}
			}
			markName := func(name string) {
				for _, fd := range byName[name] {
					mark(fd)
				}
			}
			markSelector := func(e ast.Expr) {
				if sel, ok := e.(*ast.SelectorExpr); ok {
					markName(sel.Sel.Name)
				}
			}
			elided := map[*ast.CompositeLit]ast.Expr{} // literal -> the type its parent gives it
			ast.Inspect(dl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSelector(lhs)
					}
				case *ast.IncDecStmt:
					markSelector(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSelector(n.X)
					}
				case *ast.CompositeLit:
					typ := n.Type
					if typ == nil {
						typ = elided[n]
					}
					var elt ast.Expr
					switch x := typ.(type) {
					case *ast.ArrayType:
						elt = x.Elt
					case *ast.MapType:
						elt = x.Value
					}
					if elt != nil {
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if k, ok := kv.Key.(*ast.CompositeLit); ok && k.Type == nil {
									elided[k] = typ.(*ast.MapType).Key
								}
								el = kv.Value
							}
							if v, ok := el.(*ast.CompositeLit); ok && v.Type == nil {
								elided[v] = elt
							}
						}
						return true
					}
					name, ours := "", true
					if typ != nil {
						name, ours = typeName(mf, imports[i], typ)
					}
					for aliases[name] != "" {
						name = aliases[name]
					}
					fields, known := structs[name]
					if !ours || (name != "" && !known) {
						return true // a type of another module, or not an exported struct
					}
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							for _, fd := range fields {
								mark(fd) // unkeyed: every field
							}
							break
						}
						if key, ok := kv.Key.(*ast.Ident); ok && known {
							mark(fields[key.Name])
						} else if ok {
							markName(key.Name)
						}
					}
				}
				return true
			})
		}
	}

	var flagged []string
	for _, fields := range structs {
		for _, fd := range fields {
			if !fd.set {
				flagged = append(flagged, fd.report)
			}
		}
	}
	sort.Strings(flagged)
	return flagged
}

// receiverType returns the type name of a method receiver (T, *T, T[P]).
func receiverType(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			panic("unexpected receiver type")
		}
	}
}

// allowEntry is one line of testdata/api-allowlist.txt.
type allowEntry struct {
	section string // "mpi", "reference" or "seam"
	note    string // the MPI_ name modelled, or the test comparing against it or setting it
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
