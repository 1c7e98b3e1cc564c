package models

import (
	"testing"

	"repro/internal/sim"
)

func TestDatasetSplit(t *testing.T) {
	ds, err := GenerateDataset(100, PopulationDriver(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 70 || test.Len() != 30 {
		t.Fatalf("split = %d/%d, want 70/30", train.Len(), test.Len())
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		if _, _, err := ds.Split(bad); err == nil {
			t.Errorf("Split(%v) succeeded", bad)
		}
	}
	tiny := &Dataset{X: [][]float64{{1}}, Y: []int{0}}
	if _, _, err := tiny.Split(0.5); err == nil {
		t.Fatal("degenerate split succeeded")
	}
}

func TestDatasetAppend(t *testing.T) {
	a, _ := GenerateDataset(10, PopulationDriver(), sim.NewRNG(2))
	b, _ := GenerateDataset(5, PopulationDriver(), sim.NewRNG(3))
	a.Append(b)
	if a.Len() != 15 {
		t.Fatalf("Len after append = %d", a.Len())
	}
}

func TestGenerateDatasetValidation(t *testing.T) {
	if _, err := GenerateDataset(0, PopulationDriver(), sim.NewRNG(1)); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := GenerateDataset(10, PopulationDriver(), nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestGenerateDatasetLabelCoverage(t *testing.T) {
	ds, _ := GenerateDataset(600, PopulationDriver(), sim.NewRNG(4))
	counts := make([]int, NumStyles)
	for _, y := range ds.Y {
		if y < 0 || y >= NumStyles {
			t.Fatalf("label %d out of range", y)
		}
		counts[y]++
	}
	for s, c := range counts {
		if c < 120 {
			t.Fatalf("style %d has only %d/600 samples", s, c)
		}
	}
	for _, x := range ds.X {
		if len(x) != FeatureDim {
			t.Fatalf("feature dim = %d", len(x))
		}
	}
}

func TestSyntheticDriverDeterministic(t *testing.T) {
	a := SyntheticDriver("alice", 42)
	b := SyntheticDriver("alice", 42)
	if a != b {
		t.Fatal("same seed produced different drivers")
	}
	c := SyntheticDriver("carol", 43)
	if a.ClassOffset == c.ClassOffset {
		t.Fatal("different seeds produced identical offsets")
	}
}

// TestBuildPBEAMPipeline is the §IV-E end-to-end check: the personalized
// model beats both the population model and its compressed form on the
// driver's own held-out data, and compression actually shrinks the model.
func TestBuildPBEAMPipeline(t *testing.T) {
	driver := SyntheticDriver("driver-7", 7)
	res, err := BuildPBEAM(driver, sim.NewRNG(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.CBEAMPopulationAccuracy < 0.75 {
		t.Fatalf("cBEAM population accuracy = %.3f, want >= 0.75", res.CBEAMPopulationAccuracy)
	}
	if res.CompressStats.Ratio < 2 {
		t.Fatalf("compression ratio = %.2f, want >= 2", res.CompressStats.Ratio)
	}
	if res.PBEAMDriverAccuracy <= res.CBEAMDriverAccuracy {
		t.Fatalf("pBEAM (%.3f) did not beat cBEAM (%.3f) on driver data",
			res.PBEAMDriverAccuracy, res.CBEAMDriverAccuracy)
	}
	if res.PBEAMDriverAccuracy <= res.CompressedDriverAccuracy {
		t.Fatalf("pBEAM (%.3f) did not beat compressed cBEAM (%.3f) on driver data",
			res.PBEAMDriverAccuracy, res.CompressedDriverAccuracy)
	}
}

func TestBuildPBEAMNilRNG(t *testing.T) {
	if _, err := BuildPBEAM(PopulationDriver(), nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}
