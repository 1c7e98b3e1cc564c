package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/runner"
)

var update = flag.Bool("update", false, "rewrite the golden tables under testdata/")

// rendered adapts a compute-rows/render-table experiment to the golden
// table: rendered(Table1Table)(RunTable1()).
func rendered[R any](table func(R) *Table) func(R, error) (string, error) {
	return func(rows R, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return table(rows).String(), nil
	}
}

// TestExperimentTablesGolden pins experiment tables to committed files.
// E1–E14 are the tables published in EXPERIMENTS.md and README.md, at the
// configuration `vdapbench -exp all` runs by default (seed 42, 5-minute
// streams, 8 replications); E16 and E20 are the two determinism digests,
// which `make determinism` only diffs against themselves. A change to a
// model, the scheduler, the fleet executor, the offload estimator, the
// fault planner or the DDI store that moves a published number or a digest
// shows up as a golden diff; after checking the move is intended,
// regenerate with
//
//	go test ./internal/experiments -run TestExperimentTablesGolden -update
//
// and carry the new cells into the two documents.
func TestExperimentTablesGolden(t *testing.T) {
	const seed, reps = 42, 8
	tests := []struct {
		name   string
		render func() (string, error)
	}{
		{"e01_table1", func() (string, error) { return rendered(Table1Table)(RunTable1()) }},
		{"e02_fig2", func() (string, error) { return rendered(Figure2Table)(RunFigure2(seed, 5*time.Minute)) }},
		{"e03_fig3", func() (string, error) { return rendered(Figure3Table)(RunFigure3()) }},
		{"e04_dsf", func() (string, error) { return rendered(DSFTable)(RunDSFAblation(8)) }},
		{"e05_elastic", func() (string, error) { return rendered(ElasticTable)(RunElastic()) }},
		{"e06_arch", func() (string, error) { return rendered(ArchTable)(RunArchComparison()) }},
		{"e07_compress", func() (string, error) { return rendered(CompressTable)(RunCompressionSweep(seed)) }},
		{"e07b_pbeam", func() (string, error) { return rendered(PBEAMTable)(RunPBEAMPipeline(seed, 3)) }},
		{"e07c_retrain", func() (string, error) { return rendered(RetrainTable)(RunCompressionRetrain(seed)) }},
		{"e08_ddicache", func() (string, error) { return rendered(DDITable)(RunDDIBench(t.TempDir(), seed)) }},
		{"e09_collab", func() (string, error) { return rendered(CollabTable)(RunCollaboration()) }},
		{"e10_hdmap", func() (string, error) { return rendered(HDMapTable)(RunHDMapPrefetch()) }},
		{"e11_commute", func() (string, error) { return rendered(CommuteTable)(RunCommute()) }},
		{"e12_fleet", func() (string, error) { return rendered(FleetTable)(RunFleetContention()) }},
		{"e13_sweep", func() (string, error) {
			return rendered(FleetSweepTable)(RunFleetSweep(runner.Config{Replications: reps, Parallel: 2, Seed: seed}))
		}},
		{"e14_chaos", func() (string, error) {
			return rendered(ChaosTable)(RunChaosSweep(runner.Config{Replications: reps, Parallel: 2, Seed: seed}))
		}},
		{"e16_scale", func() (string, error) {
			return rendered(ScaleTable)(RunScale(ScaleConfig{Vehicles: []int{60, 120}, Shards: []int{1, 4}, Seed: 7}))
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

// TestRunReportGolden pins the committed RUN_REPORT.json, E17's output, to
// what `vdapbench -exp obs -runreport` writes at its defaults (seed 42, 8
// replications, 2 shards). `make bench` rewrites the file; so does
//
//	go test ./internal/experiments -run TestRunReportGolden -update
func TestRunReportGolden(t *testing.T) {
	res, err := RunObs(ObsConfig{Config: runner.Config{Replications: 8, Parallel: 2, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildRunReport(res).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const path = "../../RUN_REPORT.json"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the E17 run report at vdapbench's defaults (-update rewrites it)", path)
	}
}
