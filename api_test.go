package pperf

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
	flagged, tests := scanUnreachedNames(t)
	allow := readAPIAllowlist(t, filepath.Join("testdata", "api-allowlist.txt"))

	var unlisted []string
	for _, name := range flagged {
		if _, ok := allow[name]; !ok {
			unlisted = append(unlisted, name)
		}
	}
	if len(unlisted) > 0 {
		t.Errorf("%d names are reached by nothing but tests (or nothing at all); delete each, "+
			"or move it into a _test.go file and test through the exported API:\n  %s",
			len(unlisted), strings.Join(unlisted, "\n  "))
	}

	live := map[string]bool{}
	for _, name := range flagged {
		live[name] = true
	}
	for name, e := range allow {
		switch {
		case !live[name]:
			t.Errorf("api-allowlist.txt:%d: %s is reached by non-test code (or no longer exists); delete the entry", e.line, name)
		case e.section == "mpi" && (!strings.HasPrefix(name, "mpi.") || !strings.HasPrefix(e.note, "MPI_")):
			t.Errorf("api-allowlist.txt:%d: [mpi] holds internal/mpi names, each followed by the MPI_ routine or constant it models; got %s %q", e.line, name, e.note)
		case e.section == "reference" && !tests[e.note]:
			t.Errorf("api-allowlist.txt:%d: [reference] entry %s must name a test that compares against it; no test %q", e.line, name, e.note)
		}
	}
}

// stdInterfaceMethods are methods the standard library calls through its
// own interfaces (fmt.Stringer, error, sort.Interface, io.Reader/Writer/
// Closer, errors.Unwrap), which no identifier in the module spells.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Len": true, "Less": true,
	"Swap": true, "Read": true, "Write": true, "Close": true,
}

// scanUnreachedNames parses every .go file of the module and returns the
// sorted top-level names (pkg.Name or pkg.Type.Method, pkg being the
// directory under internal/, or cmd/NAME) that no non-test file references
// outside their own declaration, and the set of Test and Fuzz functions.
func scanUnreachedNames(t *testing.T) ([]string, map[string]bool) {
	t.Helper()
	type decl struct {
		name     string // identifier
		report   string // pkg.Name or pkg.Recv.Name
		method   bool
		pos, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string][]token.Pos{} // identifier -> reference positions
	ifaceMethods := map[string]bool{}
	tests := map[string]bool{}

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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		isTest := strings.HasSuffix(path, "_test.go")
		if isTest {
			for _, dl := range f.Decls {
				fn, ok := dl.(*ast.FuncDecl)
				if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
					tests[fn.Name.Name] = true
				}
			}
			// bench/ is compiled and tested against the tree as a module of
			// its own, so its tests pin names like any other caller.
			if !strings.HasPrefix(path, "bench/") {
				return nil
			}
		}

		// Identifiers that declare rather than reference: top-level names,
		// struct fields, interface methods, receiver types.
		declIdents := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
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

		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		checked := !isTest && (strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/"))
		add := func(id *ast.Ident, report string, method bool, node ast.Node) {
			declIdents[id] = true
			if checked && id.Name != "_" && id.Name != "main" && id.Name != "init" && !strings.HasPrefix(id.Name, "Fuzz") {
				decls = append(decls, decl{id.Name, pkg + "." + report, method, node.Pos(), node.End()})
			}
		}
		for _, dl := range f.Decls {
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
	return flagged, tests
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
	section string // "mpi" or "reference"
	note    string // the MPI_ name modelled, or the test comparing against it
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
		case line == "[mpi]" || line == "[reference]":
			section = strings.Trim(line, "[]")
		default:
			fields := strings.Fields(line)
			if section == "" || len(fields) != 2 {
				t.Fatalf("%s:%d: want \"pkg.Name note\" under [mpi] or [reference], got %q", path, n, line)
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
