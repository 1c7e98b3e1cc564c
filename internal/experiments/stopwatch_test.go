package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestNoStopwatchOutsideBenchmark: the experiments and their CLI run in
// virtual time only — a wall-clock number counts when benchmark/ produced
// it. Any time.Now, time.Since or time.Until in a non-test file of the two
// packages is a second, unrepeatable measurement path growing back.
func TestNoStopwatchOutsideBenchmark(t *testing.T) {
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
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" {
						switch sel.Sel.Name {
						case "Now", "Since", "Until":
							t.Errorf("%s: time.%s reads the wall clock", fset.Position(sel.Pos()), sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
}
