package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tables under testdata/")

// TestFleetTablesGolden pins the E12–E14 tables published in EXPERIMENTS.md
// and README.md to committed files, at the configuration `vdapbench -exp
// fleet|sweep|chaos` runs by default (seed 42, 8 replications). A change to
// the fleet executor, the offload estimator or the fault planner that moves
// a published number shows up as a golden diff; after checking the move is
// intended, regenerate with
//
//	go test ./internal/experiments -run TestFleetTablesGolden -update
//
// and carry the new cells into the two documents.
func TestFleetTablesGolden(t *testing.T) {
	const seed, reps = 42, 8
	tests := []struct {
		name   string
		render func() (string, error)
	}{
		{"e12_fleet", func() (string, error) {
			rows, err := RunFleetContention()
			if err != nil {
				return "", err
			}
			return FleetTable(rows).String(), nil
		}},
		{"e13_sweep", func() (string, error) {
			res, err := RunFleetSweep(SweepConfig{Replications: reps, Parallel: 2, Seed: seed})
			if err != nil {
				return "", err
			}
			return FleetSweepTable(res).String(), nil
		}},
		{"e14_chaos", func() (string, error) {
			res, err := RunChaosSweep(ChaosConfig{Replications: reps, Parallel: 2, Seed: seed})
			if err != nil {
				return "", err
			}
			return ChaosTable(res).String(), nil
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.render()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tt.name+".golden")
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
			if got != string(want) {
				t.Errorf("%s differs from the rendered table (-update rewrites it):\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
