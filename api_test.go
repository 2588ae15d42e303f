package repro

import (
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
	"sort"
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

// ifaceRead is a method selected through an interface by a file in dir.
type ifaceRead struct {
	dir   string
	iface *types.Interface
}

// TestExportedNamesHaveOutsideReaders fails for each exported
// package-level func, const or var in internal/ that no file of another
// package names as pkg.Name, and for each exported method that no file
// of another package selects. Types and struct fields are out of scope.
// Selectors are resolved with go/types: a method counts as read when
// another package selects it on its own type (directly, through an
// embedding, or as a method value or expression), or selects a
// same-named method of an interface that its type implements.
func TestExportedNamesHaveOutsideReaders(t *testing.T) {
	fset := token.NewFileSet()
	var names []apiName
	// pkgRefs[dir] holds "importpath.Name" for every qualified
	// identifier a file in dir reads; files[dir][pkg] the parsed files
	// of each package in dir (a directory's external tests are a
	// package of their own).
	pkgRefs := map[string]map[string]bool{}
	files := map[string]map[string][]*ast.File{}
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
			pkgRefs[dir], files[dir] = map[string]bool{}, map[string][]*ast.File{}
		}
		collectReads(f, pkgRefs[dir])
		files[dir][f.Name.Name] = append(files[dir][f.Name.Name], f)
		if strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(p, "_test.go") {
			names = append(names, exportedNames(fset, dir, f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every package, tests included, is checked against the compiler's
	// export data of what it imports, so a type another package imports
	// is one object wherever it is selected; a named interface a package
	// selects on itself is looked up again in its export data.
	imp, err := exportImporter(fset)
	if err != nil {
		t.Fatal(err)
	}
	methodReads := map[string]map[string]bool{} // "importpath.Type.Method" → reading dirs
	ifaceReads := map[string][]ifaceRead{}      // method name → interface selections
	checked := map[string]*types.Package{}      // dir → its package, tests included
	for dir, pkgs := range files {
		for name, pfiles := range pkgs {
			pkgPath := path.Join("repro", dir)
			if strings.HasSuffix(name, "_test") {
				pkgPath += "_test"
			}
			info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(pkgPath, fset, pfiles, info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", pkgPath, err)
			}
			if pkgPath == path.Join("repro", dir) {
				checked[dir] = pkg
			}
			for _, sel := range info.Selections {
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					continue
				}
				recv := fn.Origin().Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				named, _ := recv.(*types.Named)
				if named != nil {
					named = named.Origin()
				}
				if it, ok := recv.Underlying().(*types.Interface); ok {
					if named != nil && named.Obj().Pkg() != nil && named.Obj().Parent() == named.Obj().Pkg().Scope() {
						// A package-level interface: its exported twin, when
						// one exists (test files export nothing).
						if pkg, err := imp.Import(named.Obj().Pkg().Path()); err == nil {
							if obj := pkg.Scope().Lookup(named.Obj().Name()); obj != nil {
								it = obj.Type().Underlying().(*types.Interface)
							}
						}
					}
					ifaceReads[fn.Name()] = append(ifaceReads[fn.Name()], ifaceRead{dir, it})
					continue
				}
				if named == nil || fn.Pkg() == nil {
					continue
				}
				key := fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
				if methodReads[key] == nil {
					methodReads[key] = map[string]bool{}
				}
				methodReads[key][dir] = true
			}
		}
	}

	counts := map[string]int{}
	var flagged []string
	for _, n := range names {
		counts[n.kind]++
		if n.kind == "method" && implicitMethods[n.name] {
			continue
		}
		var read bool
		if n.kind == "method" {
			read, err = methodReadElsewhere(n, imp, checked[n.dir], methodReads, ifaceReads)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			read = readElsewhere(n, pkgRefs)
		}
		if !read {
			id := path.Base(n.dir) + "." + n.name
			if n.recv != "" {
				id = path.Base(n.dir) + "." + n.recv + "." + n.name
			}
			flagged = append(flagged, n.where+": "+n.kind+" "+id+" is read by no other package; unexport or delete it")
		}
	}
	sort.Strings(flagged)
	for _, f := range flagged {
		t.Error(f)
	}
	t.Logf("exported in internal/: %d funcs, %d methods, %d consts, %d vars",
		counts["func"], counts["method"], counts["const"], counts["var"])
}

// readElsewhere reports whether a package other than n's names the
// func, const or var n as pkg.Name.
func readElsewhere(n apiName, pkgRefs map[string]map[string]bool) bool {
	for dir := range pkgRefs {
		if dir != n.dir && pkgRefs[dir]["repro/"+n.dir+"."+n.name] {
			return true
		}
	}
	return false
}

// methodReadElsewhere reports whether a package other than n's selects
// the method n on its own type, or selects a same-named method of an
// interface that type implements. The type is the one in n's export
// data, or, for an unexported type the export data leaves out, the one
// in self, n's package as checked from source.
func methodReadElsewhere(n apiName, imp types.Importer, self *types.Package, methodReads map[string]map[string]bool, ifaceReads map[string][]ifaceRead) (bool, error) {
	for dir := range methodReads["repro/"+n.dir+"."+n.recv+"."+n.name] {
		if dir != n.dir {
			return true, nil
		}
	}
	pkg, err := imp.Import("repro/" + n.dir)
	if err != nil {
		return false, err
	}
	obj := pkg.Scope().Lookup(n.recv)
	if obj == nil {
		obj = self.Scope().Lookup(n.recv)
	}
	typ := obj.Type()
	for _, r := range ifaceReads[n.name] {
		if r.dir != n.dir && (types.Implements(typ, r.iface) || types.Implements(types.NewPointer(typ), r.iface)) {
			return true, nil
		}
	}
	return false, nil
}

// exportImporter returns an importer that reads each package from the
// export data the go command builds for it: one go list over every
// package the module's files, tests included, import.
func exportImporter(fset *token.FileSet) (types.Importer, error) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-test", "-f", "{{.ImportPath}}={{.Export}}", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if pkg, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[pkg] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(pkg string) (io.ReadCloser, error) {
		file, ok := exports[pkg]
		if !ok {
			return nil, fmt.Errorf("go list -export lists no export data for %q", pkg)
		}
		return os.Open(file)
	}), nil
}

// collectReads records f's qualified identifiers as "importpath.Name"
// in pkgRefs.
func collectReads(f *ast.File, pkgRefs map[string]bool) {
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
