package models

import (
	"fmt"

	"repro/internal/sim"
)

// The cloud→edge pipeline of Figure 9: cBEAM trains for cloudEpochs on
// cloudSamples population samples and ships 60% pruned with 5-bit
// codebooks; the vehicle fine-tunes every layer for transferEpochs on
// driverSamples of the driver's own data.
const (
	cloudSamples   = 3000
	cloudEpochs    = 30
	driverSamples  = 400
	transferEpochs = 15
)

// PBEAMResult reports every stage of the pipeline.
type PBEAMResult struct {
	// CBEAM is the population model; PBEAM the personalized one.
	CBEAM *MLP
	PBEAM *MLP
	// CompressedCBEAM is what was shipped to the vehicle.
	CompressedCBEAM *Compressed

	// Accuracy of each stage on the driver's held-out data.
	CBEAMDriverAccuracy      float64
	CompressedDriverAccuracy float64
	PBEAMDriverAccuracy      float64
	// CBEAMPopulationAccuracy sanity-checks cloud training.
	CBEAMPopulationAccuracy float64

	CompressStats CompressStats
}

// BuildPBEAM runs the full pipeline for one driver — train cBEAM on
// population data in the cloud, compress it, ship it to the vehicle, and
// fine-tune it on the driver's own data into pBEAM — and reports accuracies
// at every stage. The expected shape — and what the benchmarks assert — is
// population ≈ compressed < personalized on the driver's own data.
func BuildPBEAM(driver DriverProfile, rng *sim.RNG) (*PBEAMResult, error) {
	if rng == nil {
		return nil, fmt.Errorf("models: nil RNG")
	}
	// Cloud stage: train the common model on population data.
	popTrain, err := GenerateDataset(cloudSamples, PopulationDriver(), rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("population data: %w", err)
	}
	popTest, err := GenerateDataset(cloudSamples/4, PopulationDriver(), rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("population test data: %w", err)
	}
	cbeam, err := NewMLP([]int{FeatureDim, 32, 16, NumStyles}, rng.Fork())
	if err != nil {
		return nil, err
	}
	if _, err := cbeam.Train(popTrain, TrainOptions{Epochs: cloudEpochs, LearningRate: 0.01}, rng.Fork()); err != nil {
		return nil, fmt.Errorf("cBEAM training: %w", err)
	}

	// Compression stage: shrink for the edge, then ship it in the wire
	// format (Figure 9's download arrow) and unpack it on the vehicle.
	compressed, err := Compress(cbeam, CompressOptions{PruneFraction: 0.6, CodebookBits: 5})
	if err != nil {
		return nil, fmt.Errorf("compress cBEAM: %w", err)
	}
	wire, err := compressed.Marshal()
	if err != nil {
		return nil, fmt.Errorf("ship cBEAM: %w", err)
	}
	received, err := UnmarshalCompressed(wire)
	if err != nil {
		return nil, fmt.Errorf("receive cBEAM: %w", err)
	}
	shipped, err := received.Decompress()
	if err != nil {
		return nil, fmt.Errorf("decompress cBEAM: %w", err)
	}

	// Edge stage: fine-tune on the driver's own data (stored in DDI).
	driverData, err := GenerateDataset(driverSamples, driver, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("driver data: %w", err)
	}
	driverTrain, driverTest, err := driverData.Split(0.7)
	if err != nil {
		return nil, err
	}
	pbeam := shipped.Clone()
	if _, err := pbeam.Train(driverTrain, TrainOptions{Epochs: transferEpochs, LearningRate: 0.02}, rng.Fork()); err != nil {
		return nil, fmt.Errorf("pBEAM transfer learning: %w", err)
	}

	res := &PBEAMResult{
		CBEAM:           cbeam,
		PBEAM:           pbeam,
		CompressedCBEAM: compressed,
		CompressStats:   compressed.Stats,
	}
	if res.CBEAMPopulationAccuracy, err = cbeam.Accuracy(popTest); err != nil {
		return nil, err
	}
	if res.CBEAMDriverAccuracy, err = cbeam.Accuracy(driverTest); err != nil {
		return nil, err
	}
	if res.CompressedDriverAccuracy, err = shipped.Accuracy(driverTest); err != nil {
		return nil, err
	}
	if res.PBEAMDriverAccuracy, err = pbeam.Accuracy(driverTest); err != nil {
		return nil, err
	}
	return res, nil
}
