package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// isOptionStruct: the exported structs a caller configures a component
// with are named for it.
func isOptionStruct(name string) bool {
	return ast.IsExported(name) &&
		(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy"))
}

// TestEveryOptionIsSetBySomethingThatRuns: every exported field of an
// exported struct under internal/ named *Config, *Options or *Policy is
// written — a composite-literal key, a positional literal, or an assignment
// through a selector — by non-test code under cmd/, examples/, benchmark/
// or internal/ outside the package that declares it. What the declaring
// package writes are its defaults (withDefaults, Default*, a constructor
// filling zeroes in), and a field only they set holds one value in every
// run: make it a constant. The fields only a test moves, to reach a state
// it cannot reach at the constant, are the reviewed lines of
// testdata/unset_options.golden, each with its reason (DESIGN.md §2.3);
//
//	go test -run TestEveryOptionIsSetBySomethingThatRuns -update .
//
// rewrites it, and a new line needs its reason written after " # ".
func TestEveryOptionIsSetBySomethingThatRuns(t *testing.T) {
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	c := &checker{fset: token.NewFileSet(), pkgs: map[string]*checked{}}
	c.std = importer.ForCompiler(c.fset, "source", nil)

	fields := map[*types.Var]string{} // exported option field → pkg.Struct.Field
	set := map[*types.Var]bool{}
	var loaded []*checked
	for _, root := range append([]string{"internal"}, programRoots...) {
		for _, dir := range goDirs(t, root) {
			p := c.load(dir)
			if p.err != nil {
				t.Fatalf("%s: %v", dir, p.err)
			}
			loaded = append(loaded, p)
			if root != "internal" {
				continue
			}
			scope := p.pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !isOptionStruct(name) {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields[f] = p.pkg.Name() + "." + name + "." + f.Name()
					}
				}
			}
		}
	}

	for _, p := range loaded {
		write := func(f *types.Var) {
			if f.Pkg() != p.pkg {
				set[f] = true
			}
		}
		assign := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if f, ok := p.info.Uses[sel.Sel].(*types.Var); ok && f.IsField() {
					write(f)
				}
			}
		}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						assign(lhs)
					}
				case *ast.IncDecStmt:
					assign(n.X)
				case *ast.CompositeLit:
					typ := p.info.TypeOf(n)
					if ptr, ok := typ.Underlying().(*types.Pointer); ok { // &T elided inside []*T{{…}}
						typ = ptr.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if f, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								write(f)
							}
						} else {
							write(st.Field(i))
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	for f, name := range fields {
		if !set[f] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	t.Logf("%d exported option fields under internal/, %d of them set by tests only", len(fields), len(unset))
	checkGoldenList(t, "testdata/unset_options.golden", unset,
		"is set by nothing that runs: make it a constant,", "is gone or set by a program now")
}
