package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLineLedger renders the non-test Go lines of every package the
// programs are built from — each package under internal/ and cmd/, and
// benchmark/ — with a subtotal per root and a total, into
// testdata/loc.golden. A change that grows or shrinks the code then shows
// the move in its own diff;
//
//	go test -run TestLineLedger -update .
//
// rewrites the file. A line is a newline, as wc -l counts them.
func TestLineLedger(t *testing.T) {
	roots := []struct {
		name string // the subtotal's label
		dirs []string
	}{
		{name: "internal", dirs: goDirs(t, "internal")},
		{name: "cmd", dirs: goDirs(t, "cmd")},
		{name: "benchmark", dirs: []string{"benchmark"}},
	}
	var b strings.Builder
	total := 0
	for _, root := range roots {
		sub := 0
		for _, dir := range root.dirs {
			n := goLines(t, dir)
			fmt.Fprintf(&b, "%-24s %6d\n", dir, n)
			sub += n
		}
		fmt.Fprintf(&b, "%-24s %6d\n\n", root.name+" total", sub)
		total += sub
	}
	fmt.Fprintf(&b, "%-24s %6d\n", "total", total)
	got := []byte(b.String())

	const golden = "testdata/loc.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the tree's line counts (-update rewrites it):\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// goLines counts the lines of the non-test Go files directly in dir.
func goLines(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n += bytes.Count(src, []byte("\n"))
	}
	return n
}
