package sparseap_test

import (
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

// bareDocName is a code span in the docs that is one capitalized Go
// identifier and nothing else: `Engine`, not `sim.Engine` or `Engine.Step`.
var bareDocName = regexp.MustCompile("`([A-Z][A-Za-z0-9_]*)`")

// TestDocNamesDeclared checks that every bare name DESIGN.md and README.md
// put in backticks is declared somewhere in the module's Go files, tests
// included: as a func, method, type, struct field, interface method, const
// or var. A name from the standard library is written qualified
// (`sync.RWMutex`), a magic or a header as a string, and prose or maths
// without backticks, so a miss is a name the code no longer has.
func TestDocNamesDeclared(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // a module of its own
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
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name.Name] = true
			case *ast.TypeSpec:
				declared[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id.Name] = true
				}
			case *ast.Field: // struct fields and interface methods
				for _, id := range n.Names {
					declared[id.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range bareDocName.FindAllStringSubmatch(line, -1) {
				if !declared[m[1]] {
					t.Errorf("%s:%d: `%s` is declared in no Go file of the module", doc, i+1, m[1])
				}
			}
		}
	}
}
