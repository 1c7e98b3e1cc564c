package models

import (
	"fmt"

	"repro/internal/sim"
)

// Driving-behavior classes predicted by cBEAM/pBEAM.
const (
	StyleCautious = iota
	StyleNormal
	StyleAggressive
	NumStyles
)

// FeatureDim is the number of telemetry features per sample: mean speed,
// speed variance, mean |accel|, accel variance, jerk, throttle
// aggressiveness, brake intensity, following-distance proxy.
const FeatureDim = 8

// Dataset is a labeled sample set.
type Dataset struct {
	X [][]float64
	Y []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Split partitions the dataset into train/test at the given fraction.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("models: trainFrac %v outside (0,1)", trainFrac)
	}
	n := int(float64(len(d.X)) * trainFrac)
	if n == 0 || n == len(d.X) {
		return nil, nil, fmt.Errorf("models: split of %d samples at %v leaves an empty side", len(d.X), trainFrac)
	}
	return &Dataset{X: d.X[:n], Y: d.Y[:n]},
		&Dataset{X: d.X[n:], Y: d.Y[n:]}, nil
}

// styleProfile is the class-conditional mean of each feature. Values are
// roughly normalized telemetry (z-score-ish scales).
var styleProfiles = [NumStyles][FeatureDim]float64{
	StyleCautious:   {-0.8, -0.6, -0.9, -0.7, -0.8, -0.9, -0.5, 0.9},
	StyleNormal:     {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
	StyleAggressive: {0.9, 0.8, 1.0, 0.9, 1.1, 1.0, 0.8, -0.9},
}

// DriverProfile personalizes the population distribution: a driver shifts
// each class-conditional mean by its own per-class offset (their
// "aggressive" looks different from the population's "aggressive"), which
// is what makes a population model (cBEAM) miscalibrated for an individual
// and transfer learning (pBEAM) worthwhile.
type DriverProfile struct {
	// Name identifies the driver.
	Name string
	// ClassOffset shifts each feature's mean per behavior class.
	ClassOffset [NumStyles][FeatureDim]float64
	// Noise scales the within-class standard deviation (1 = population).
	Noise float64
}

// PopulationDriver returns the neutral profile used for cloud training.
func PopulationDriver() DriverProfile {
	return DriverProfile{Name: "population", Noise: 1}
}

// SyntheticDriver derives a personalized profile deterministically from a
// seed: per-class per-feature offsets and slightly different noise.
func SyntheticDriver(name string, seed int64) DriverProfile {
	rng := sim.NewRNG(seed)
	p := DriverProfile{Name: name, Noise: rng.Uniform(0.8, 1.2)}
	for s := range p.ClassOffset {
		for f := range p.ClassOffset[s] {
			p.ClassOffset[s][f] = rng.Uniform(-1.1, 1.1)
		}
	}
	return p
}

// GenerateDataset draws n labeled samples for the given driver. Class
// priors are uniform. The generator is deterministic given the RNG state.
func GenerateDataset(n int, driver DriverProfile, rng *sim.RNG) (*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("models: sample count must be positive, got %d", n)
	}
	if rng == nil {
		return nil, fmt.Errorf("models: nil RNG")
	}
	noise := driver.Noise
	if noise <= 0 {
		noise = 1
	}
	ds := &Dataset{X: make([][]float64, 0, n), Y: make([]int, 0, n)}
	for i := 0; i < n; i++ {
		style := rng.Intn(NumStyles)
		x := make([]float64, FeatureDim)
		for f := 0; f < FeatureDim; f++ {
			x[f] = styleProfiles[style][f] + driver.ClassOffset[style][f] + rng.Normal(0, 0.55*noise)
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, style)
	}
	return ds, nil
}
