package sparseap_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateUncalled = flag.Bool("update-uncalled", false, "rewrite testdata/uncalled.txt from the scan (reasons of kept names are kept)")

// interfaceMethods are exported method names that standard-library
// interfaces call on a value no repository file names: fmt.Stringer,
// error, encoding, sort.Interface, io and net/http. They stay out of the
// scan.
var interfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "Seek": true, "ReadAt": true, "WriteAt": true,
	"ReadFrom": true, "WriteTo": true, "Flush": true,
	"ServeHTTP": true, "RoundTrip": true,
}

// TestUncalledExports lists every exported func, method, type, const and
// var under internal/ that no non-test Go file of the repository names,
// bench/ included, and compares the list with testdata/uncalled.txt. A
// package-level name counts as named when its own package uses it bare or
// another file selects it through an import of the package; a method
// counts as named when any file selects a member of that name. Each line
// of the file is a name and a reason for keeping it, so a new uncalled
// export shows up as a reviewed diff.
func TestUncalledExports(t *testing.T) {
	const module = "sparseap"
	type decl struct{ pkg, name, method string }
	var decls []decl
	bare := map[string]map[string]bool{} // package dir -> bare identifiers its files use
	qualified := map[string]bool{}       // "import path.Name" selected through an import
	members := map[string]bool{}         // selector names on anything but an import

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		declaring := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				declaring[dl.Name] = true
				if dl.Recv != nil {
					ast.Inspect(dl.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							declaring[id] = true
						}
						return true
					})
				}
				if !dl.Name.IsExported() {
					continue
				}
				if dl.Recv == nil {
					decls = append(decls, decl{dir, dl.Name.Name, ""})
				} else if !interfaceMethods[dl.Name.Name] {
					decls = append(decls, decl{dir, receiverType(dl.Recv.List[0].Type), dl.Name.Name})
				}
			case *ast.GenDecl:
				for _, sp := range dl.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						declaring[sp.Name] = true
						if sp.Name.IsExported() {
							decls = append(decls, decl{dir, sp.Name.Name, ""})
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							declaring[id] = true
							if id.IsExported() {
								decls = append(decls, decl{dir, id.Name, ""})
							}
						}
					}
				}
			}
		}
		if bare[dir] == nil {
			bare[dir] = map[string]bool{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					declaring[id] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					members[n.Sel.Name] = true
				}
				declaring[n.Sel] = true // a selected name is not a bare use
			case *ast.Ident:
				if !declaring[n] {
					bare[dir][n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, d := range decls {
		if !strings.HasPrefix(d.pkg, "internal/") {
			continue
		}
		short := path.Base(d.pkg)
		if d.method != "" {
			if !members[d.method] {
				got = append(got, short+"."+d.name+"."+d.method)
			}
			continue
		}
		if !bare[d.pkg][d.name] && !qualified[module+"/"+d.pkg+"."+d.name] {
			got = append(got, short+"."+d.name)
		}
	}
	slices.Sort(got)
	got = slices.Compact(got)

	const golden = "testdata/uncalled.txt"
	raw, err := os.ReadFile(golden)
	if err != nil && !*updateUncalled {
		t.Fatal(err)
	}
	var header []string
	reasons := map[string]string{}
	var want []string
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			header = append(header, line)
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		reasons[name] = reason
		want = append(want, name)
	}
	if *updateUncalled {
		out := header
		for _, name := range got {
			out = append(out, strings.TrimSpace(name+" "+reasons[name]))
		}
		if err := os.WriteFile(golden, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, name := range got {
		if _, ok := reasons[name]; !ok {
			t.Errorf("%s: exported, but no non-test file names it; use it, delete it, or list it in %s with a reason", name, golden)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("%s: listed in %s, but a non-test file now names it (or it is gone); drop the line", name, golden)
		}
	}
}

// receiverType returns the type name of a method receiver expression.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
