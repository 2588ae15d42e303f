package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// implicitMethods are the method names the standard library calls
// without a selector in the caller's source (fmt, errors, encoding/json).
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// apiName is one exported func, method, const or var declared in a
// non-test file of internal/.
type apiName struct {
	dir   string // package directory, e.g. "internal/sched"
	kind  string // "func", "method", "const" or "var"
	recv  string // receiver type name, for a method
	name  string
	where string
}

// TestExportedNamesHaveOutsideReaders fails for each exported
// package-level func, const or var in internal/ that no file of another
// package names as pkg.Name, and for each exported method whose name no
// file of another package selects. Types and struct fields are out of
// scope. The scan is syntactic: a method counts as read if any selector
// elsewhere has its name, so a call through an interface keeps it.
func TestExportedNamesHaveOutsideReaders(t *testing.T) {
	fset := token.NewFileSet()
	var names []apiName
	// pkgRefs[dir] holds "importpath.Name" for every qualified
	// identifier a file in dir reads; selRefs[dir] every selector name.
	pkgRefs := map[string]map[string]bool{}
	selRefs := map[string]map[string]bool{}
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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if pkgRefs[dir] == nil {
			pkgRefs[dir], selRefs[dir] = map[string]bool{}, map[string]bool{}
		}
		collectReads(f, pkgRefs[dir], selRefs[dir])
		if strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(p, "_test.go") {
			names = append(names, exportedNames(fset, dir, f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, n := range names {
		counts[n.kind]++
		if n.kind == "method" && implicitMethods[n.name] {
			continue
		}
		if !readElsewhere(n, pkgRefs, selRefs) {
			id := path.Base(n.dir) + "." + n.name
			if n.recv != "" {
				id = path.Base(n.dir) + "." + n.recv + "." + n.name
			}
			t.Errorf("%s: %s %s is read by no other package; unexport or delete it", n.where, n.kind, id)
		}
	}
	t.Logf("exported in internal/: %d funcs, %d methods, %d consts, %d vars",
		counts["func"], counts["method"], counts["const"], counts["var"])
}

// readElsewhere reports whether a package other than n's reads n.
func readElsewhere(n apiName, pkgRefs, selRefs map[string]map[string]bool) bool {
	for dir := range pkgRefs {
		if dir == n.dir {
			continue
		}
		if n.kind == "method" {
			if selRefs[dir][n.name] {
				return true
			}
		} else if pkgRefs[dir]["repro/"+n.dir+"."+n.name] {
			return true
		}
	}
	return false
}

// collectReads records f's qualified identifiers as "importpath.Name"
// in pkgRefs, and every selector's name in selRefs.
func collectReads(f *ast.File, pkgRefs, selRefs map[string]bool) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		local := path.Base(ip)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = ip
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selRefs[sel.Sel.Name] = true
		if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
			pkgRefs[imports[x.Name]+"."+sel.Sel.Name] = true
		}
		return true
	})
}

// exportedNames lists f's exported funcs, methods, consts and vars.
func exportedNames(fset *token.FileSet, dir string, f *ast.File) []apiName {
	var out []apiName
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			n := apiName{dir: dir, kind: "func", name: d.Name.Name, where: fset.Position(d.Pos()).String()}
			if d.Recv != nil {
				n.kind, n.recv = "method", recvName(d.Recv.List[0].Type)
			}
			out = append(out, n)
		case *ast.GenDecl:
			if d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if id.IsExported() {
						out = append(out, apiName{dir: dir, kind: d.Tok.String(), name: id.Name, where: fset.Position(id.Pos()).String()})
					}
				}
			}
		}
	}
	return out
}

// recvName is a receiver's type name without pointer or type arguments.
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
			return "?"
		}
	}
}
