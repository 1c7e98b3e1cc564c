package models

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// PruneInPlace zeroes the smallest-magnitude fraction of each weight
// layer and returns the per-layer boolean masks (true = pruned). This is
// Deep Compression's first stage, exposed separately so pruning can be
// followed by mask-preserving retraining.
func PruneInPlace(m *MLP, fraction float64) ([][][]bool, error) {
	if m == nil {
		return nil, fmt.Errorf("models: nil model")
	}
	if fraction < 0 || fraction > 0.99 {
		return nil, fmt.Errorf("models: prune fraction %v outside [0, 0.99]", fraction)
	}
	masks := make([][][]bool, len(m.W))
	for l := range m.W {
		rows := len(m.W[l])
		masks[l] = make([][]bool, rows)
		var mags []float64
		for o := range m.W[l] {
			masks[l][o] = make([]bool, len(m.W[l][o]))
			for _, w := range m.W[l][o] {
				mags = append(mags, math.Abs(w))
			}
		}
		pruneN := int(float64(len(mags)) * fraction)
		if pruneN == 0 {
			continue
		}
		sort.Float64s(mags)
		threshold := mags[pruneN-1]
		budget := pruneN
		for o := range m.W[l] {
			for i, w := range m.W[l][o] {
				if budget > 0 && math.Abs(w) <= threshold {
					m.W[l][o][i] = 0
					masks[l][o][i] = true
					budget--
				}
			}
		}
	}
	return masks, nil
}

// applyMasks re-zeroes pruned weights (projected SGD step).
func applyMasks(m *MLP, masks [][][]bool) {
	for l := range masks {
		for o := range masks[l] {
			for i, pruned := range masks[l][o] {
				if pruned {
					m.W[l][o][i] = 0
				}
			}
		}
	}
}

// RetrainPruned fine-tunes a pruned model while keeping pruned weights at
// zero (the mask is enforced inside every gradient step) — Deep
// Compression's "learning only the important connections". It returns the
// final epoch's loss.
func RetrainPruned(m *MLP, masks [][][]bool, ds *Dataset, opts TrainOptions, rng *sim.RNG) (float64, error) {
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	if len(masks) != len(m.W) {
		return 0, fmt.Errorf("models: mask layers %d != model layers %d", len(masks), len(m.W))
	}
	opts.mask = masks
	loss, err := m.Train(ds, opts, rng)
	if err != nil {
		return 0, err
	}
	// Belt and braces: floating error cannot resurrect a skipped weight,
	// but re-projecting keeps the invariant explicit for callers.
	applyMasks(m, masks)
	return loss, nil
}

// CompressRetrained runs the full Deep-Compression recipe: prune, retrain
// the surviving connections, then weight-share and entropy-code. The input
// model is not modified.
func CompressRetrained(m *MLP, opts CompressOptions, retrain TrainOptions, ds *Dataset, rng *sim.RNG) (*Compressed, error) {
	if m == nil {
		return nil, fmt.Errorf("models: nil model")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("models: retraining needs data")
	}
	if rng == nil {
		return nil, fmt.Errorf("models: nil RNG")
	}
	work := m.Clone()
	masks, err := PruneInPlace(work, opts.PruneFraction)
	if err != nil {
		return nil, err
	}
	if _, err := RetrainPruned(work, masks, ds, retrain, rng); err != nil {
		return nil, fmt.Errorf("retrain after pruning: %w", err)
	}
	// Pruned weights are exactly zero, so compressing with the same
	// fraction re-selects precisely the masked set.
	return Compress(work, opts)
}
