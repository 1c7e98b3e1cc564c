package models

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/huffman"
)

// CompressOptions controls the Deep-Compression pipeline (Han et al.,
// cited by the paper as the basis of libvdap's model compression).
type CompressOptions struct {
	// PruneFraction of smallest-magnitude weights is zeroed (0..0.99).
	PruneFraction float64
	// CodebookBits sets the shared-weight cluster count to 2^bits (1..8).
	CodebookBits int
}

// kmeansIters bounds the quantization refinement.
const kmeansIters = 20

// Validate reports option errors.
func (o CompressOptions) Validate() error {
	if o.PruneFraction < 0 || o.PruneFraction > 0.99 {
		return fmt.Errorf("models: prune fraction %v outside [0, 0.99]", o.PruneFraction)
	}
	if o.CodebookBits < 1 || o.CodebookBits > 8 {
		return fmt.Errorf("models: codebook bits %d outside [1, 8]", o.CodebookBits)
	}
	return nil
}

// Compressed is a pruned, weight-shared, entropy-coded model. Index 0 of
// each codebook is reserved for pruned (zero) weights.
type Compressed struct {
	Sizes []int
	// Codebooks[l] holds the shared weight values for layer l.
	Codebooks [][]float64
	// Encoded[l] is the Huffman-coded per-weight codebook index stream.
	Encoded [][]byte
	// Biases are kept dense (they are a negligible fraction of parameters).
	Biases [][]float64
	// Stats summarizes the size accounting.
	Stats CompressStats
}

// CompressStats reports the compression outcome.
type CompressStats struct {
	OriginalBytes   int
	CompressedBytes int
	Ratio           float64 // original / compressed, >1 is a gain
	PrunedFraction  float64 // weights actually zeroed
	CodebookBits    int
}

// Compress applies prune → weight-share → Huffman to a trained model.
func Compress(m *MLP, opts CompressOptions) (*Compressed, error) {
	if m == nil {
		return nil, fmt.Errorf("models: nil model")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	c := &Compressed{Sizes: append([]int(nil), m.Sizes...), Stats: CompressStats{CodebookBits: opts.CodebookBits}}
	totalWeights, prunedWeights := 0, 0
	compressedBytes := 0

	for l := range m.W {
		flat := flatten(m.W[l])
		totalWeights += len(flat)

		// 1. Magnitude pruning: zero the smallest |w|, with a budget so
		// magnitude ties do not over-prune past the requested fraction.
		pruneN := int(float64(len(flat)) * opts.PruneFraction)
		if pruneN > 0 {
			mags := make([]float64, len(flat))
			for i, w := range flat {
				mags[i] = math.Abs(w)
			}
			sort.Float64s(mags)
			threshold := mags[pruneN-1]
			budget := pruneN
			for i, w := range flat {
				if budget > 0 && math.Abs(w) <= threshold {
					flat[i] = 0
					budget--
				}
			}
			prunedWeights += pruneN - budget
		}

		// 2. Weight sharing: k-means over the surviving weights.
		k := 1 << opts.CodebookBits
		codebook := kmeans1D(nonZero(flat), k-1, kmeansIters)
		// Reserve index 0 for zero; codebook entries shift by one.
		full := make([]float64, 1, len(codebook)+1)
		full[0] = 0
		full = append(full, codebook...)

		indices := make([]byte, len(flat))
		for i, w := range flat {
			if w == 0 {
				indices[i] = 0
				continue
			}
			indices[i] = byte(1 + nearestIdx(codebook, w))
		}

		// 3. Entropy coding of the index stream.
		enc, err := huffman.Encode(indices)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", l, err)
		}
		c.Codebooks = append(c.Codebooks, full)
		c.Encoded = append(c.Encoded, enc)
		c.Biases = append(c.Biases, append([]float64(nil), m.B[l]...))
		compressedBytes += len(enc) + 4*len(full) + 4*len(m.B[l])
	}

	c.Stats.OriginalBytes = m.SizeBytes()
	c.Stats.CompressedBytes = compressedBytes
	if compressedBytes > 0 {
		c.Stats.Ratio = float64(c.Stats.OriginalBytes) / float64(compressedBytes)
	}
	if totalWeights > 0 {
		c.Stats.PrunedFraction = float64(prunedWeights) / float64(totalWeights)
	}
	return c, nil
}

// layerIndices holds layer l to the sizes around it — both at least 1, their
// product the number of coded indices without wrapping, one bias per output,
// every index inside a codebook of at most 256 values — before anything is
// sized from them, and returns the decoded index stream. Sizes arrive from
// outside the program (UnmarshalCompressed), so nothing about them is
// assumed.
func (c *Compressed) layerIndices(l int) ([]byte, error) {
	if l >= len(c.Encoded) || l >= len(c.Codebooks) || l >= len(c.Biases) {
		return nil, fmt.Errorf("models: compressed model missing layer %d", l)
	}
	in, out := c.Sizes[l], c.Sizes[l+1]
	if in < 1 || out < 1 || in > math.MaxInt/out {
		return nil, fmt.Errorf("models: layer %d is %d x %d", l, in, out)
	}
	if len(c.Biases[l]) != out {
		return nil, fmt.Errorf("models: layer %d has %d biases, want %d", l, len(c.Biases[l]), out)
	}
	codebook := c.Codebooks[l]
	if len(codebook) < 1 || len(codebook) > 256 {
		return nil, fmt.Errorf("models: layer %d has a codebook of %d values", l, len(codebook))
	}
	indices, err := huffman.Decode(c.Encoded[l])
	if err != nil {
		return nil, fmt.Errorf("layer %d: %w", l, err)
	}
	if len(indices) != in*out {
		return nil, fmt.Errorf("models: layer %d has %d indices, want %d", l, len(indices), in*out)
	}
	for _, idx := range indices {
		if int(idx) >= len(codebook) {
			return nil, fmt.Errorf("models: layer %d index %d outside codebook of %d", l, idx, len(codebook))
		}
	}
	return indices, nil
}

// Decompress reconstructs a dense MLP from the compressed form. Weights
// take their shared codebook values; pruned weights are zero.
func (c *Compressed) Decompress() (*MLP, error) {
	if len(c.Sizes) < 2 {
		return nil, fmt.Errorf("models: compressed model has no layer sizes")
	}
	m := &MLP{Sizes: append([]int(nil), c.Sizes...)}
	for l := 0; l < len(c.Sizes)-1; l++ {
		indices, err := c.layerIndices(l)
		if err != nil {
			return nil, err
		}
		in, out := c.Sizes[l], c.Sizes[l+1]
		codebook := c.Codebooks[l]
		wl := make([][]float64, out)
		for o := range wl {
			row := make([]float64, in)
			for i := range row {
				row[i] = codebook[indices[o*in+i]]
			}
			wl[o] = row
		}
		m.W = append(m.W, wl)
		m.B = append(m.B, append([]float64(nil), c.Biases[l]...))
	}
	return m, nil
}

func flatten(w [][]float64) []float64 {
	n := 0
	for _, row := range w {
		n += len(row)
	}
	out := make([]float64, 0, n)
	for _, row := range w {
		out = append(out, row...)
	}
	return out
}

func nonZero(ws []float64) []float64 {
	out := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w != 0 {
			out = append(out, w)
		}
	}
	return out
}

// kmeans1D clusters values into at most k centroids with deterministic
// linear initialization over [min, max], the initialization Deep
// Compression found most robust.
func kmeans1D(values []float64, k, iters int) []float64 {
	if len(values) == 0 {
		return nil
	}
	if k <= 0 {
		k = 1
	}
	if k > len(values) {
		k = len(values)
	}
	minV, maxV := values[0], values[0]
	for _, v := range values[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	centroids := make([]float64, k)
	if k == 1 {
		centroids[0] = (minV + maxV) / 2
	} else {
		for i := range centroids {
			centroids[i] = minV + (maxV-minV)*float64(i)/float64(k-1)
		}
	}
	sums := make([]float64, k)
	counts := make([]int, k)
	for iter := 0; iter < iters; iter++ {
		for i := range sums {
			sums[i], counts[i] = 0, 0
		}
		for _, v := range values {
			c := nearestIdx(centroids, v)
			sums[c] += v
			counts[c]++
		}
		moved := false
		for i := range centroids {
			if counts[i] == 0 {
				continue
			}
			next := sums[i] / float64(counts[i])
			if next != centroids[i] {
				centroids[i] = next
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return centroids
}

func nearestIdx(centroids []float64, v float64) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range centroids {
		if d := math.Abs(c - v); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
