package models

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestNewMLPValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := NewMLP([]int{4}, rng); err == nil {
		t.Fatal("single-layer spec accepted")
	}
	if _, err := NewMLP([]int{4, 0, 3}, rng); err == nil {
		t.Fatal("zero-width layer accepted")
	}
	if _, err := NewMLP([]int{4, 3}, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestMLPShapes(t *testing.T) {
	m, err := NewMLP([]int{8, 16, 3}, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.W) != 2 {
		t.Fatalf("weight layers = %d", len(m.W))
	}
	wantParams := 8*16 + 16 + 16*3 + 3
	if m.ParamCount() != wantParams {
		t.Fatalf("ParamCount = %d, want %d", m.ParamCount(), wantParams)
	}
	if m.SizeBytes() != wantParams*4 {
		t.Fatalf("SizeBytes = %d", m.SizeBytes())
	}
}

func TestPredictSoftmaxProperties(t *testing.T) {
	m, _ := NewMLP([]int{4, 8, 3}, sim.NewRNG(3))
	probs, err := m.Predict([]float64{0.5, -0.2, 0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v outside [0,1]", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if _, err := m.Predict([]float64{1, 2}); err == nil {
		t.Fatal("wrong input size accepted")
	}
}

func TestTrainLearnsSeparableData(t *testing.T) {
	rng := sim.NewRNG(4)
	ds, err := GenerateDataset(1500, PopulationDriver(), rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMLP([]int{FeatureDim, 24, NumStyles}, rng.Fork())
	before, _ := m.Accuracy(test)
	loss, err := m.Train(train, TrainOptions{Epochs: 25, LearningRate: 0.01}, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if after < 0.80 {
		t.Fatalf("accuracy after training = %.3f (was %.3f), want >= 0.80; loss %.3f", after, before, loss)
	}
	if after <= before {
		t.Fatalf("training did not improve accuracy: %.3f -> %.3f", before, after)
	}
}

func TestTrainLossDecreases(t *testing.T) {
	rng := sim.NewRNG(5)
	ds, _ := GenerateDataset(600, PopulationDriver(), rng.Fork())
	m, _ := NewMLP([]int{FeatureDim, 16, NumStyles}, rng.Fork())
	l1, err := m.Train(ds, TrainOptions{Epochs: 1, LearningRate: 0.01}, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := m.Train(ds, TrainOptions{Epochs: 10, LearningRate: 0.01}, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	if l2 >= l1 {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", l1, l2)
	}
}

func TestTrainOptionsValidate(t *testing.T) {
	bad := []TrainOptions{
		{},
		{Epochs: 1},
		{Epochs: 1, LearningRate: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate passed", i)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	rng := sim.NewRNG(6)
	m, _ := NewMLP([]int{FeatureDim, 8, NumStyles}, rng.Fork())
	good := TrainOptions{Epochs: 1, LearningRate: 0.01}
	if _, err := m.Train(nil, good, rng); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := m.Train(&Dataset{}, good, rng); err == nil {
		t.Fatal("empty dataset accepted")
	}
	ds, _ := GenerateDataset(10, PopulationDriver(), rng.Fork())
	if _, err := m.Train(ds, good, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
	wrong := &Dataset{X: [][]float64{{1, 2}}, Y: []int{0}}
	if _, err := m.Train(wrong, good, rng); err == nil {
		t.Fatal("wrong feature dim accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := NewMLP([]int{4, 6, 2}, sim.NewRNG(8))
	c := m.Clone()
	c.W[0][0][0] = 999
	c.B[1][0] = 999
	if m.W[0][0][0] == 999 || m.B[1][0] == 999 {
		t.Fatal("Clone shares storage")
	}
}

func TestAccuracyErrors(t *testing.T) {
	m, _ := NewMLP([]int{4, 2}, sim.NewRNG(9))
	if _, err := m.Accuracy(nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := m.Accuracy(&Dataset{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	bad := &Dataset{X: [][]float64{{1}}, Y: []int{0}}
	if _, err := m.Accuracy(bad); err == nil {
		t.Fatal("wrong-dim dataset accepted")
	}
}
