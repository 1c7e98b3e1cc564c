package models

import (
	"testing"

	"repro/internal/sim"
)

func benchModel(b *testing.B) (*MLP, *Dataset) {
	b.Helper()
	rng := sim.NewRNG(1)
	ds, err := GenerateDataset(1000, PopulationDriver(), rng.Fork())
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMLP([]int{FeatureDim, 32, 16, NumStyles}, rng.Fork())
	if err != nil {
		b.Fatal(err)
	}
	return m, ds
}

func BenchmarkPredict(b *testing.B) {
	m, ds := benchModel(b)
	var s Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictInto(ds.X[i%ds.Len()], &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	m, ds := benchModel(b)
	rng := sim.NewRNG(2)
	opts := TrainOptions{Epochs: 1, LearningRate: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Train(ds, opts, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeepCompress(b *testing.B) {
	m, ds := benchModel(b)
	rng := sim.NewRNG(3)
	if _, err := m.Train(ds, TrainOptions{Epochs: 5, LearningRate: 0.01}, rng); err != nil {
		b.Fatal(err)
	}
	opts := CompressOptions{PruneFraction: 0.6, CodebookBits: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	m, ds := benchModel(b)
	rng := sim.NewRNG(4)
	if _, err := m.Train(ds, TrainOptions{Epochs: 5, LearningRate: 0.01}, rng); err != nil {
		b.Fatal(err)
	}
	c, err := Compress(m, CompressOptions{PruneFraction: 0.6, CodebookBits: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(); err != nil {
			b.Fatal(err)
		}
	}
}
