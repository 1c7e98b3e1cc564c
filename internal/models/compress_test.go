package models

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func trainedModel(t *testing.T, seed int64) (*MLP, *Dataset) {
	t.Helper()
	rng := sim.NewRNG(seed)
	ds, err := GenerateDataset(1200, PopulationDriver(), rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLP([]int{FeatureDim, 24, 12, NumStyles}, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(ds, TrainOptions{Epochs: 20, LearningRate: 0.01}, rng.Fork()); err != nil {
		t.Fatal(err)
	}
	return m, ds
}

func TestCompressOptionsValidate(t *testing.T) {
	bad := []CompressOptions{
		{PruneFraction: -0.1, CodebookBits: 4},
		{PruneFraction: 0.995, CodebookBits: 4},
		{PruneFraction: 0.5, CodebookBits: 0},
		{PruneFraction: 0.5, CodebookBits: 9},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate passed", i)
		}
	}
	if err := (CompressOptions{PruneFraction: 0.6, CodebookBits: 5}).Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestCompressReducesSize(t *testing.T) {
	m, _ := trainedModel(t, 20)
	c, err := Compress(m, CompressOptions{PruneFraction: 0.6, CodebookBits: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.CompressedBytes >= c.Stats.OriginalBytes {
		t.Fatalf("no size reduction: %d -> %d", c.Stats.OriginalBytes, c.Stats.CompressedBytes)
	}
	if c.Stats.Ratio < 2 {
		t.Fatalf("compression ratio = %.2f, want >= 2 at 60%%/5-bit", c.Stats.Ratio)
	}
	if math.Abs(c.Stats.PrunedFraction-0.6) > 0.02 {
		t.Fatalf("pruned fraction = %.3f, want ~0.6", c.Stats.PrunedFraction)
	}
}

func TestCompressedModelStillAccurate(t *testing.T) {
	m, ds := trainedModel(t, 21)
	before, err := m.Accuracy(ds)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(m, CompressOptions{PruneFraction: 0.5, CodebookBits: 5})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	after, err := restored.Accuracy(ds)
	if err != nil {
		t.Fatal(err)
	}
	if after < before-0.08 {
		t.Fatalf("compression destroyed accuracy: %.3f -> %.3f", before, after)
	}
}

func TestHarderCompressionLosesMoreAccuracy(t *testing.T) {
	m, ds := trainedModel(t, 22)
	acc := func(prune float64, bits int) float64 {
		c, err := Compress(m, CompressOptions{PruneFraction: prune, CodebookBits: bits})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		a, err := r.Accuracy(ds)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	gentle := acc(0.3, 6)
	brutal := acc(0.97, 1)
	if brutal > gentle {
		t.Fatalf("97%%/1-bit (%.3f) beat 30%%/6-bit (%.3f)", brutal, gentle)
	}
}

func TestHarderCompressionShrinksMore(t *testing.T) {
	m, _ := trainedModel(t, 23)
	c1, err := Compress(m, CompressOptions{PruneFraction: 0.3, CodebookBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compress(m, CompressOptions{PruneFraction: 0.9, CodebookBits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Stats.CompressedBytes >= c1.Stats.CompressedBytes {
		t.Fatalf("harder compression did not shrink more: %d vs %d",
			c2.Stats.CompressedBytes, c1.Stats.CompressedBytes)
	}
}

func TestDecompressRoundTripShape(t *testing.T) {
	m, _ := trainedModel(t, 24)
	c, err := Compress(m, CompressOptions{PruneFraction: 0.4, CodebookBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if r.ParamCount() != m.ParamCount() {
		t.Fatalf("param count changed: %d -> %d", m.ParamCount(), r.ParamCount())
	}
	// Every restored weight must be a codebook value.
	for l := range r.W {
		valid := map[float64]bool{}
		for _, v := range c.Codebooks[l] {
			valid[v] = true
		}
		for _, row := range r.W[l] {
			for _, w := range row {
				if !valid[w] {
					t.Fatalf("restored weight %v not in codebook", w)
				}
			}
		}
	}
}

func TestCompressZeroPruning(t *testing.T) {
	m, _ := trainedModel(t, 25)
	c, err := Compress(m, CompressOptions{PruneFraction: 0, CodebookBits: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.PrunedFraction != 0 {
		t.Fatalf("pruned fraction = %v with PruneFraction 0", c.Stats.PrunedFraction)
	}
	if _, err := c.Decompress(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressNilModel(t *testing.T) {
	if _, err := Compress(nil, CompressOptions{PruneFraction: 0.5, CodebookBits: 4}); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestDecompressCorruptStructures(t *testing.T) {
	c := &Compressed{}
	if _, err := c.Decompress(); err == nil {
		t.Fatal("empty compressed model decompressed")
	}
	c = &Compressed{Sizes: []int{4, 2}}
	if _, err := c.Decompress(); err == nil {
		t.Fatal("missing layers decompressed")
	}
}

func TestKMeans1DProperties(t *testing.T) {
	if got := kmeans1D(nil, 4, 10); got != nil {
		t.Fatalf("kmeans of nothing = %v", got)
	}
	// Centroids always lie within [min, max] of the data.
	if err := quick.Check(func(seed int64) bool {
		rng := sim.NewRNG(seed)
		vals := make([]float64, 100)
		for i := range vals {
			vals[i] = rng.Uniform(-3, 3)
		}
		cents := kmeans1D(vals, 7, 15)
		for _, c := range cents {
			if c < -3 || c > 3 {
				return false
			}
		}
		return len(cents) == 7
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	// Two well-separated clusters are found.
	vals := []float64{-5, -5.1, -4.9, 5, 5.1, 4.9}
	cents := kmeans1D(vals, 2, 20)
	if len(cents) != 2 {
		t.Fatalf("centroids = %v", cents)
	}
	lo, hi := math.Min(cents[0], cents[1]), math.Max(cents[0], cents[1])
	if math.Abs(lo+5) > 0.2 || math.Abs(hi-5) > 0.2 {
		t.Fatalf("centroids = %v, want ~{-5, 5}", cents)
	}
}

func TestKMeansFewerValuesThanClusters(t *testing.T) {
	cents := kmeans1D([]float64{1, 2}, 8, 10)
	if len(cents) != 2 {
		t.Fatalf("got %d centroids for 2 values", len(cents))
	}
}
