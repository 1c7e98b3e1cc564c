package experiments

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/sim"
)

// CompressRow is one sweep point in E7.
type CompressRow struct {
	PruneFraction float64
	CodebookBits  int
	Ratio         float64
	AccBefore     float64
	AccAfter      float64
}

// RunCompressionSweep trains a cBEAM-sized model and sweeps Deep
// Compression's two knobs (E7): size ratio vs accuracy cost.
func RunCompressionSweep(seed int64) ([]CompressRow, error) {
	rng := sim.NewRNG(seed)
	train, err := models.GenerateDataset(2400, models.PopulationDriver(), rng.Fork())
	if err != nil {
		return nil, err
	}
	test, err := models.GenerateDataset(600, models.PopulationDriver(), rng.Fork())
	if err != nil {
		return nil, err
	}
	m, err := models.NewMLP([]int{models.FeatureDim, 32, 16, models.NumStyles}, rng.Fork())
	if err != nil {
		return nil, err
	}
	if _, err := m.Train(train, models.TrainOptions{Epochs: 25, LearningRate: 0.01}, rng.Fork()); err != nil {
		return nil, err
	}
	accBefore, err := m.Accuracy(test)
	if err != nil {
		return nil, err
	}
	sweep := []models.CompressOptions{
		{PruneFraction: 0.3, CodebookBits: 6},
		{PruneFraction: 0.5, CodebookBits: 5},
		{PruneFraction: 0.6, CodebookBits: 5},
		{PruneFraction: 0.8, CodebookBits: 4},
		{PruneFraction: 0.9, CodebookBits: 3},
		{PruneFraction: 0.95, CodebookBits: 2},
	}
	var rows []CompressRow
	for _, opts := range sweep {
		c, err := models.Compress(m, opts)
		if err != nil {
			return nil, fmt.Errorf("compress %.2f/%d: %w", opts.PruneFraction, opts.CodebookBits, err)
		}
		restored, err := c.Decompress()
		if err != nil {
			return nil, err
		}
		accAfter, err := restored.Accuracy(test)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CompressRow{
			PruneFraction: opts.PruneFraction,
			CodebookBits:  opts.CodebookBits,
			Ratio:         c.Stats.Ratio,
			AccBefore:     accBefore,
			AccAfter:      accAfter,
		})
	}
	return rows, nil
}

// CompressTable renders E7's sweep.
func CompressTable(rows []CompressRow) *Table {
	t := &Table{
		Title:   "E7: Deep Compression sweep on cBEAM (size ratio vs accuracy)",
		Columns: []string{"Prune", "Bits", "Ratio (x)", "Acc before", "Acc after"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			f2(r.PruneFraction), fmt.Sprintf("%d", r.CodebookBits),
			f2(r.Ratio), f3(r.AccBefore), f3(r.AccAfter),
		})
	}
	return t
}

// RetrainRow is one pruning level's comparison in E7c.
type RetrainRow struct {
	PruneFraction float64
	AccPlain      float64
	AccRetrained  float64
	Ratio         float64
}

// RunCompressionRetrain contrasts plain prune-and-quantize with Deep
// Compression's prune-retrain-quantize recipe at aggressive pruning levels
// (E7c): retraining should recover most of the accuracy cliff of E7.
func RunCompressionRetrain(seed int64) ([]RetrainRow, error) {
	rng := sim.NewRNG(seed)
	data, err := models.GenerateDataset(3000, models.PopulationDriver(), rng.Fork())
	if err != nil {
		return nil, err
	}
	train, test, err := data.Split(0.8)
	if err != nil {
		return nil, err
	}
	m, err := models.NewMLP([]int{models.FeatureDim, 32, 16, models.NumStyles}, rng.Fork())
	if err != nil {
		return nil, err
	}
	if _, err := m.Train(train, models.TrainOptions{Epochs: 25, LearningRate: 0.01}, rng.Fork()); err != nil {
		return nil, err
	}
	var rows []RetrainRow
	for _, prune := range []float64{0.6, 0.8, 0.9, 0.95} {
		opts := models.CompressOptions{PruneFraction: prune, CodebookBits: 4}
		plain, err := models.Compress(m, opts)
		if err != nil {
			return nil, err
		}
		retrained, err := models.CompressRetrained(m, opts,
			models.TrainOptions{Epochs: 10, LearningRate: 0.01}, train, rng.Fork())
		if err != nil {
			return nil, err
		}
		pm, err := plain.Decompress()
		if err != nil {
			return nil, err
		}
		rm, err := retrained.Decompress()
		if err != nil {
			return nil, err
		}
		accPlain, err := pm.Accuracy(test)
		if err != nil {
			return nil, err
		}
		accRetrained, err := rm.Accuracy(test)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RetrainRow{
			PruneFraction: prune,
			AccPlain:      accPlain,
			AccRetrained:  accRetrained,
			Ratio:         retrained.Stats.Ratio,
		})
	}
	return rows, nil
}

// RetrainTable renders E7c.
func RetrainTable(rows []RetrainRow) *Table {
	t := &Table{
		Title:   "E7c: pruning with vs. without retraining (4-bit codebooks)",
		Columns: []string{"Prune", "Acc (no retrain)", "Acc (retrained)", "Ratio (x)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{f2(r.PruneFraction), f3(r.AccPlain), f3(r.AccRetrained), f2(r.Ratio)})
	}
	return t
}

// PBEAMRow is one driver's pipeline outcome in E7b.
type PBEAMRow struct {
	Driver        string
	Ratio         float64
	CBEAMAcc      float64
	CompressedAcc float64
	PBEAMAcc      float64
}

// RunPBEAMPipeline runs the full cloud→edge pipeline for several synthetic
// drivers (E7b): personalization must recover what compression and driver
// mismatch cost.
func RunPBEAMPipeline(seed int64, drivers int) ([]PBEAMRow, error) {
	if drivers <= 0 {
		drivers = 3
	}
	var rows []PBEAMRow
	for i := 0; i < drivers; i++ {
		driver := models.SyntheticDriver(fmt.Sprintf("driver-%d", i), seed+int64(i)*17)
		res, err := models.BuildPBEAM(driver, sim.NewRNG(seed+int64(i)*101))
		if err != nil {
			return nil, fmt.Errorf("driver %d: %w", i, err)
		}
		rows = append(rows, PBEAMRow{
			Driver:        driver.Name,
			Ratio:         res.CompressStats.Ratio,
			CBEAMAcc:      res.CBEAMDriverAccuracy,
			CompressedAcc: res.CompressedDriverAccuracy,
			PBEAMAcc:      res.PBEAMDriverAccuracy,
		})
	}
	return rows, nil
}

// PBEAMTable renders E7b.
func PBEAMTable(rows []PBEAMRow) *Table {
	t := &Table{
		Title:   "E7b: pBEAM pipeline (accuracy on each driver's own held-out data)",
		Columns: []string{"Driver", "Compression (x)", "cBEAM", "Compressed", "pBEAM"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Driver, f2(r.Ratio), f3(r.CBEAMAcc), f3(r.CompressedAcc), f3(r.PBEAMAcc),
		})
	}
	return t
}
