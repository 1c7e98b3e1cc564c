package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// eachSelector calls f on every selector expression (x.Sel) in the non-test
// files of the experiments package and of vdapbench.
func eachSelector(t *testing.T, f func(pos token.Position, x ast.Expr, sel string)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../../cmd/vdapbench"} {
		notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
		pkgs, err := parser.ParseDir(fset, dir, notTest, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						f(fset.Position(sel.Pos()), sel.X, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
}

// TestNoStopwatchOutsideBenchmark: the experiments and their CLI run in
// virtual time only — a wall-clock number counts when benchmark/ produced
// it. Any time.Now, time.Since or time.Until in a non-test file of the two
// packages is a second, unrepeatable measurement path growing back.
func TestNoStopwatchOutsideBenchmark(t *testing.T) {
	eachSelector(t, func(pos token.Position, x ast.Expr, sel string) {
		if id, ok := x.(*ast.Ident); ok && id.Name == "time" {
			switch sel {
			case "Now", "Since", "Until":
				t.Errorf("%s: time.%s reads the wall clock", pos, sel)
			}
		}
	})
}

// TestOneFleetLoop: a fleet experiment is a fleetScenario row, so a fleet
// is made (fleet.New), instrumented (InstrumentSharded) and driven
// (ShardedInvokeAll, ShardedInvokeAllTolerant) in one place each —
// fleetScenario's build and run. A second reference to any of them is a
// sixth hand-written fleet loop growing back.
func TestOneFleetLoop(t *testing.T) {
	refs := map[string][]string{}
	eachSelector(t, func(pos token.Position, x ast.Expr, sel string) {
		switch sel {
		case "New":
			if id, ok := x.(*ast.Ident); !ok || id.Name != "fleet" {
				return
			}
			sel = "fleet.New"
		case "InstrumentSharded", "ShardedInvokeAll", "ShardedInvokeAllTolerant":
		default:
			return
		}
		refs[sel] = append(refs[sel], pos.String())
	})
	for _, name := range []string{"fleet.New", "InstrumentSharded", "ShardedInvokeAll", "ShardedInvokeAllTolerant"} {
		if len(refs[name]) != 1 {
			t.Errorf("%s is referenced %d times, want once (fleetScenario): %v", name, len(refs[name]), refs[name])
		}
	}
}
