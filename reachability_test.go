package repro

import (
	"flag"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ and examples/testdata/")

// modulePath is go.mod's module line. The three directories below hold
// every program of the repository, so what they do not reach never runs.
const modulePath = "repro"

var programRoots = []string{"cmd", "examples", "benchmark"}

// goDirs lists the directories under root (slash-separated, relative to the
// repository) that hold at least one Go file.
func goDirs(t *testing.T, root string) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			seen[filepath.ToSlash(filepath.Dir(p))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

// inModule maps an import path of this module to its directory.
func inModule(importPath string) (dir string, ok bool) {
	if importPath == modulePath {
		return ".", true
	}
	return strings.CutPrefix(importPath, modulePath+"/")
}

// TestEveryInternalPackageReachable: a package under internal/ exists
// because a program imports it, directly or through other packages. One
// that only tests import is code nothing runs; wire it into a program or
// delete it. There is no allow-list.
func TestEveryInternalPackageReachable(t *testing.T) {
	reached := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if sub, ok := inModule(imp); ok {
				walk(sub)
			}
		}
	}
	for _, root := range programRoots {
		for _, dir := range goDirs(t, root) {
			walk(dir)
		}
	}
	for _, dir := range goDirs(t, "internal") {
		if !reached[dir] {
			t.Errorf("%s: no package under %s/ imports it, so no program runs it", dir, strings.Join(programRoots, "/, "))
		}
	}
}

// checker type-checks the module's non-test files from source; packages
// outside the module come from the standard library's source importer.
type checker struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checked // by directory
}

type checked struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
	err   error
}

func (c *checker) Import(importPath string) (*types.Package, error) {
	dir, ok := inModule(importPath)
	if !ok {
		return c.std.Import(importPath)
	}
	p := c.load(dir)
	return p.pkg, p.err
}

func (c *checker) load(dir string) *checked {
	if p, ok := c.pkgs[dir]; ok {
		return p
	}
	p := &checked{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	c.pkgs[dir] = p
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		p.err = err
		return p
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			p.err = err
			return p
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: c}
	p.pkg, p.err = conf.Check(path.Join(modulePath, dir), c.fset, p.files, p.info)
	return p
}

// A decl is one top-level declaration of a non-test file: a function, a
// method, or one name of a type, var or const declaration.
type decl struct {
	name    string // ddi.DiskStore.Explain; empty outside internal/
	lines   int
	root    bool          // main or init of a program
	node    ast.Node      // where its references are read from
	info    *types.Info   // of its package
	methods []*types.Func // of a type: those an interface may call
}

// declsOf returns a package's top-level declarations by the object each
// defines.
func declsOf(fset *token.FileSet, dir string, p *checked) map[types.Object]*decl {
	internal := strings.HasPrefix(dir, "internal/")
	out := map[types.Object]*decl{}
	add := func(id *ast.Ident, recv string, node ast.Node, doc *ast.CommentGroup, span ast.Node) {
		if id.Name == "_" {
			return
		}
		d := &decl{node: node, info: p.info}
		from := span.Pos()
		if doc != nil {
			from = doc.Pos()
		}
		d.lines = fset.Position(span.End()).Line - fset.Position(from).Line + 1
		if internal {
			d.name = p.pkg.Name() + "." + recv + id.Name
		}
		out[p.info.Defs[id]] = d
	}
	for _, f := range p.files {
		for _, fd := range f.Decls {
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				recv := ""
				if fd.Recv != nil {
					recv = receiverName(fd.Recv.List[0].Type) + "."
				}
				add(fd.Name, recv, fd, fd.Doc, fd)
				if !internal && fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
					out[p.info.Defs[fd.Name]].root = true
				}
			case *ast.GenDecl:
				for _, spec := range fd.Specs {
					var names []*ast.Ident
					var doc *ast.CommentGroup
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names, doc = []*ast.Ident{spec.Name}, spec.Doc
					case *ast.ValueSpec:
						names, doc = spec.Names, spec.Doc
					}
					span := ast.Node(spec)
					if !fd.Lparen.IsValid() { // ungrouped: the keyword and its comment leave too
						span, doc = fd, fd.Doc
					}
					for _, id := range names {
						add(id, "", spec, doc, span)
					}
				}
			}
		}
	}
	return out
}

func receiverName(e ast.Expr) string {
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

// origin undoes generic instantiation, so a use of List[int].Push finds
// the declaration of List[T].Push.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestTestOnlyDeclarationsGolden keeps the inventory of what only tests
// reach as a reviewed file. Starting from every main and init under cmd/,
// examples/ and benchmark/, it follows each identifier a reached
// declaration uses; a method is also reached when its receiver type is
// and it is part of how that type satisfies an interface written in the
// module or exported by a standard-library package the module imports (the
// call goes through the interface, so no identifier names the method).
// What is left under internal/ is listed in testdata/test_only_decls.golden.
// A new line there is a declaration nothing runs: call it from a program,
// delete it, or — for one of the four reasons DESIGN.md §2.1 gives —
// accept it with
//
//	go test -run TestTestOnlyDeclarationsGolden -update .
func TestTestOnlyDeclarationsGolden(t *testing.T) {
	// The source importer reads build.Default. What reaches what does not
	// depend on cgo, and without it checking net and os/user needs no C
	// toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	c := &checker{fset: token.NewFileSet(), pkgs: map[string]*checked{}}
	c.std = importer.ForCompiler(c.fset, "source", nil)

	decls := map[types.Object]*decl{}
	var ifaces []*types.Interface
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, root := range append([]string{"internal"}, programRoots...) {
		for _, dir := range goDirs(t, root) {
			p := c.load(dir)
			if p.err != nil {
				t.Fatalf("%s: %v", dir, p.err)
			}
			for obj, d := range declsOf(c.fset, dir, p) {
				decls[obj] = d
			}
			for _, f := range p.files {
				ast.Inspect(f, func(n ast.Node) bool {
					if it, ok := n.(*ast.InterfaceType); ok {
						addIface(p.info.TypeOf(it))
					}
					return true
				})
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	std := map[*types.Package]bool{}
	var addStd func(pkg *types.Package)
	addStd = func(pkg *types.Package) {
		for _, imp := range pkg.Imports() {
			if _, ours := inModule(imp.Path()); ours || std[imp] {
				continue
			}
			std[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
			addStd(imp)
		}
	}
	for _, p := range c.pkgs {
		addStd(p.pkg)
	}

	// A reached type brings the methods an interface value of it could call.
	for obj, d := range decls {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		generic := named.TypeParams().Len() > 0 // Implements needs an instance: match by name
		seen := map[*types.Func]bool{}
		for _, it := range ifaces {
			if !generic && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				sel := mset.Lookup(m.Pkg(), m.Name())
				if sel == nil {
					continue
				}
				if fn := sel.Obj().(*types.Func).Origin(); !seen[fn] {
					seen[fn] = true
					d.methods = append(d.methods, fn)
				}
			}
		}
	}

	reached := map[*decl]bool{}
	var work []*decl
	reach := func(obj types.Object) {
		if d := decls[origin(obj)]; d != nil && !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	for obj, d := range decls {
		if d.root {
			reach(obj)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := d.info.Uses[id]; obj != nil {
					reach(obj)
				}
			}
			return true
		})
		for _, m := range d.methods {
			reach(m)
		}
	}

	var names []string
	lines := 0
	for _, d := range decls {
		if d.name != "" && !reached[d] {
			names = append(names, d.name)
			lines += d.lines
		}
	}
	sort.Strings(names)
	t.Logf("%d declarations under internal/ (%d lines) are reached by tests only", len(names), lines)
	checkGoldenList(t, "testdata/test_only_decls.golden", names,
		"is reached by no program", "is gone or reached now")
}

// checkGoldenList compares sorted names with the reviewed file at path, one
// name a line, and reports each name the file lacks (as "name <unlisted>
// and is not in path") and each line it has too many ("… but <stale>");
// -update rewrites the file instead.
func checkGoldenList(t *testing.T, path string, names []string, unlisted, stale string) {
	t.Helper()
	got := strings.Join(names, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	listed := map[string]bool{}
	for _, name := range strings.Fields(string(want)) {
		listed[name] = true
	}
	for _, name := range names {
		if !listed[name] {
			t.Errorf("%s %s and is not in %s", name, unlisted, path)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("%s is in %s but %s; regenerate with -update", name, path, stale)
	}
}
