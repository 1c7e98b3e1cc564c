package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesGolden runs every program under examples/ and compares its
// standard output with examples/testdata/<name>.golden. The examples are
// deterministic — fixed seeds, virtual time, a scratch data directory of
// their own — and are the only programs besides vdapd that run a platform
// at core.DefaultConfig, so a change to a default shows up here as a diff;
// after checking the move is intended,
//
//	go test -run TestExamplesGolden -update .
//
// rewrites the files.
func TestExamplesGolden(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || name == "testdata" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			golden := filepath.Join("examples", "testdata", name+".golden")
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
				t.Errorf("%s differs from the program's output (-update rewrites it):\n got:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
