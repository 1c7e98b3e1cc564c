package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// scopeStores are the four stores an obs.Scope carries, by defining
// package. The packages that define them (and obs, which merges and samples
// them) are where they may be passed around one by one.
var scopeStores = map[string][]string{
	modulePath + "/internal/telemetry": {"Registry"},
	modulePath + "/internal/trace":     {"Tracer"},
	modulePath + "/internal/obs":       {"Recorder", "SeriesStore"},
}

// TestObservabilityArrivesAsScope: outside the three packages above, no
// function or method under internal/ or cmd/ takes a registry, tracer,
// flight recorder or series store as a parameter — observability reaches a
// component as one obs.Scope (DESIGN.md §2.2), so a fifth store or a new
// component adds no setter. Results are allowed: the Merged*/Platform
// accessors hand stores out to be read. There is no allow-list.
func TestObservabilityArrivesAsScope(t *testing.T) {
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	for _, dir := range append(goDirs(t, "internal"), goDirs(t, "cmd")...) {
		if _, own := scopeStores[modulePath+"/"+dir]; own {
			continue
		}
		pkgs, err := parser.ParseDir(fset, dir, notTest, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				// Local package name → the store types it exports.
				stores := map[string][]string{}
				for _, imp := range file.Imports {
					p, _ := strconv.Unquote(imp.Path.Value)
					if names, ok := scopeStores[p]; ok {
						local := p[strings.LastIndex(p, "/")+1:]
						if imp.Name != nil {
							local = imp.Name.Name
						}
						stores[local] = names
					}
				}
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					name := fn.Name.Name
					if fn.Recv != nil {
						name = receiverName(fn.Recv.List[0].Type) + "." + name
					}
					for _, param := range fn.Type.Params.List {
						ast.Inspect(param.Type, func(n ast.Node) bool {
							star, ok := n.(*ast.StarExpr)
							if !ok {
								return true
							}
							sel, ok := star.X.(*ast.SelectorExpr)
							if !ok {
								return true
							}
							x, ok := sel.X.(*ast.Ident)
							if !ok {
								return true
							}
							for _, store := range stores[x.Name] {
								if sel.Sel.Name == store {
									t.Errorf("%s: %s takes a *%s.%s; take an obs.Scope",
										fset.Position(param.Pos()), name, x.Name, store)
								}
							}
							return true
						})
					}
				}
			}
		}
	}
}
