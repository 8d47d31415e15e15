package sparseap_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docs are the documents whose code spans must name code that exists.
var docs = []string{"DESIGN.md", "README.md"}

var (
	// bareDocName is a code span that is one capitalized Go identifier
	// and nothing else: `Engine`, not `sim.Engine` or `Engine.Step`.
	bareDocName = regexp.MustCompile("`([A-Z][A-Za-z0-9_]*)`")
	// testDocName is a code span that starts with a test, fuzz target or
	// benchmark name: `TestX`, `BenchmarkY/sub`.
	testDocName = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)")
	// pkgDocName is a code span that starts with `pkg.Name`; it is checked
	// when internal/pkg exists.
	pkgDocName = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)")
	// rootDocName is a code span that starts with a root-package name:
	// `sparseap.Name`, `sparseap.Type.Member` or a bare `Engine.Method`
	// (sim's engine is written `sim.Engine.Method`).
	rootDocName = regexp.MustCompile("`(?:sparseap\\.([A-Z][A-Za-z0-9_]*(?:\\.[A-Z][A-Za-z0-9_]*)?)|(Engine\\.[A-Z][A-Za-z0-9_]*(?:\\.[A-Z][A-Za-z0-9_]*)?))")
)

// docIndex is what one walk of the module's Go files declares.
type docIndex struct {
	// declared holds every name declared in any Go file, tests included:
	// funcs, methods, types, struct fields, interface methods, consts
	// and vars.
	declared map[string]bool
	// tests holds the receiverless funcs of the _test.go files.
	tests map[string]bool
	// pkgs maps a package directory ("." for the root) to what go doc
	// resolves in it from its non-test files: each exported top-level
	// name and each exported method of an exported type as "Name", and
	// each method, interface method and field of an exported type as
	// "Type.Member".
	pkgs map[string]map[string]bool
}

// indexModule walks the Go files under root, skipping testdata, hidden
// directories and nested modules (bench/ is a module of its own).
func indexModule(root string) (*docIndex, error) {
	ix := &docIndex{declared: map[string]bool{}, tests: map[string]bool{}, pkgs: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
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
		isTest := strings.HasSuffix(p, "_test.go")
		dir, _ := filepath.Rel(root, filepath.Dir(p))
		dir = filepath.ToSlash(dir)
		syms := ix.pkgs[dir]
		if syms == nil {
			syms = map[string]bool{}
			ix.pkgs[dir] = syms
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				ix.declared[n.Name.Name] = true
			case *ast.TypeSpec:
				ix.declared[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					ix.declared[id.Name] = true
				}
			case *ast.Field: // struct fields and interface methods
				for _, id := range n.Names {
					ix.declared[id.Name] = true
				}
			}
			return true
		})
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case isTest:
					if d.Recv == nil {
						ix.tests[d.Name.Name] = true
					}
				case !d.Name.IsExported():
				case d.Recv == nil:
					syms[d.Name.Name] = true
				case ast.IsExported(recvName(d.Recv.List[0].Type)):
					syms[d.Name.Name] = true
					syms[recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				if isTest {
					continue
				}
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							syms[sp.Name.Name] = true
							for _, m := range members(sp.Type) {
								syms[sp.Name.Name+"."+m] = true
							}
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if id.IsExported() {
								syms[id.Name] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	return ix, err
}

// recvName is the type name of a method receiver: T in `(t *T)`, `(t T[K])`.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// members lists the exported fields of a struct type or methods of an
// interface type.
func members(e ast.Expr) []string {
	var list *ast.FieldList
	switch t := e.(type) {
	case *ast.StructType:
		list = t.Fields
	case *ast.InterfaceType:
		list = t.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range list.List {
		for _, id := range f.Names {
			if id.IsExported() {
				out = append(out, id.Name)
			}
		}
	}
	return out
}

// check returns one line per code span of text that names nothing: a
// bare name no Go file declares, a test no test file defines, a
// `pkg.Name` internal/pkg does not declare, or a root-package name the
// root package does not declare.
func (ix *docIndex) check(doc, text string) []string {
	var bad []string
	miss := func(line int, format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%s:%d: ", doc, line)+fmt.Sprintf(format, args...))
	}
	for i, line := range strings.Split(text, "\n") {
		n := i + 1
		for _, m := range bareDocName.FindAllStringSubmatch(line, -1) {
			if !ix.declared[m[1]] {
				miss(n, "`%s` is declared in no Go file of the module", m[1])
			}
		}
		for _, m := range testDocName.FindAllStringSubmatch(line, -1) {
			if !ix.tests[m[1]] {
				miss(n, "`%s` is defined by no test file", m[1])
			}
		}
		for _, m := range pkgDocName.FindAllStringSubmatch(line, -1) {
			syms, ok := ix.pkgs["internal/"+m[1]]
			if ok && !syms[m[2]] {
				miss(n, "`%s.%s` is not declared in internal/%s", m[1], m[2], m[1])
			}
		}
		for _, m := range rootDocName.FindAllStringSubmatch(line, -1) {
			if ref := m[1] + m[2]; !ix.pkgs["."][ref] {
				miss(n, "`%s` is not declared in the root package", ref)
			}
		}
	}
	return bad
}

// TestDocNamesDeclared holds DESIGN.md and README.md to the code: every
// backticked bare name is declared somewhere in the module (a name from
// the standard library is written qualified, a magic or a header as a
// string, prose or maths without backticks), every backticked Test*,
// Fuzz* or Benchmark* name is a func of some test file, every
// `pkg.Name` of an internal package is declared in it, and every
// `sparseap.Name` or `Engine.Method` in the root package.
func TestDocNamesDeclared(t *testing.T) {
	ix, err := indexModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range ix.check(doc, string(raw)) {
			t.Error(msg)
		}
	}
}

// TestDocNamesCatchMissing feeds check one line per rule, a name that
// exists beside one that does not, and wants exactly the missing ones.
func TestDocNamesCatchMissing(t *testing.T) {
	ix, err := indexModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		line string
		want []string // the names reported missing
	}{
		{"`Compile` and `NoSuchDeclaration`", []string{"NoSuchDeclaration"}},
		{"`TestDifferential` and `TestNoSuchCell/sub`", []string{"TestNoSuchCell"}},
		{"`FuzzDifferential/seed`, `FuzzNoSuchTarget/seed`, `BenchmarkNoSuchShape/sub`", []string{"FuzzNoSuchTarget", "BenchmarkNoSuchShape"}},
		{"`sim.Compile`, `sim.Engine.Skip`, `sim.NoSuchFunc`", []string{"sim.NoSuchFunc"}},
		// a method resolves on its own, as go doc resolves it
		{"`checkpoint.Save`", nil},
		// a test-only declaration is not part of the package
		{"`oracle.Run` and `sim.TestStepZeroAlloc`", []string{"sim.TestStepZeroAlloc"}},
		// no internal/nosuchpkg: not a package reference
		{"`nosuchpkg.Name` and `strconv.AppendInt`", nil},
		{"`sparseap.Match`, `sparseap.Engine.RunGuarded`, `sparseap.NoSuchRoot`", []string{"NoSuchRoot"}},
		{"`Engine.PartitionStatic` and `Engine.NoSuchMethod`", []string{"Engine.NoSuchMethod"}},
	} {
		got := ix.check("doc", c.line)
		if len(got) != len(c.want) {
			t.Errorf("%q: got %q, want %d findings naming %q", c.line, got, len(c.want), c.want)
			continue
		}
		for i, w := range c.want {
			if !strings.Contains(got[i], "`"+w+"`") {
				t.Errorf("%q: finding %q does not name `%s`", c.line, got[i], w)
			}
		}
	}
}

// TestDocSizes is the ratchet that keeps the design and the readme at the
// size of the system they describe: measurements, history and variants
// that did not land belong in CHANGES.md.
func TestDocSizes(t *testing.T) {
	for doc, limit := range map[string]int64{"DESIGN.md": 50_000, "README.md": 15_000} {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > limit {
			t.Errorf("%s is %d bytes, over its %d-byte cap", doc, fi.Size(), limit)
		}
	}
}
