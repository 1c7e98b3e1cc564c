package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tables under testdata/")

// TestExperimentTablesGolden pins experiment tables to committed files. E12–E14
// are the tables published in EXPERIMENTS.md and README.md, at the
// configuration `vdapbench -exp fleet|sweep|chaos` runs by default (seed 42,
// 8 replications); E16 and E20 are the two determinism digests, which `make
// determinism` only diffs against themselves. A change to the fleet
// executor, the offload estimator, the fault planner or the DDI store that
// moves a published number or a digest shows up as a golden diff; after
// checking the move is intended, regenerate with
//
//	go test ./internal/experiments -run TestExperimentTablesGolden -update
//
// and carry the new E12–E14 cells into the two documents.
func TestExperimentTablesGolden(t *testing.T) {
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
		{"e16_scale", func() (string, error) {
			res, err := RunScale(ScaleConfig{Vehicles: []int{60, 120}, Shards: []int{1, 4}, Seed: 7})
			if err != nil {
				return "", err
			}
			return ScaleTable(res), nil
		}},
		{"e20_ddi", func() (string, error) {
			res, err := RunDDIStore(DDIStoreConfig{Records: 120_000, Seed: 7, Parallel: 2, Dir: t.TempDir()})
			if err != nil {
				return "", err
			}
			return DDIStoreTable(res), nil
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
