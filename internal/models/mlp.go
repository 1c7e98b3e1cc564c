// Package models implements the AI substrate of libvdap: real multi-layer
// perceptrons trained by stochastic gradient descent, a synthetic
// driving-behavior dataset, Deep-Compression-style model compression
// (magnitude pruning, k-means weight sharing, Huffman coding), and the
// cloud→edge pBEAM transfer-learning pipeline from the paper's §IV-E.
//
// Networks here are deliberately small — the paper's pipeline (pre-train a
// common model in the cloud, compress it, fine-tune it on the vehicle into
// a personalized model) is what is reproduced, with real gradients and real
// compression arithmetic, not the absolute scale of Inception-v3.
package models

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// MLP is a fully connected network with ReLU hidden layers and a softmax
// output trained with cross-entropy loss.
type MLP struct {
	// Sizes holds layer widths, input first, classes last.
	Sizes []int
	// W[l][o][i] is the weight from unit i of layer l to unit o of l+1.
	W [][][]float64
	// B[l][o] is the bias of unit o of layer l+1.
	B [][]float64
}

// NewMLP builds a network with the given layer sizes and small random
// initial weights (He initialization).
func NewMLP(sizes []int, rng *sim.RNG) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("models: need at least input and output layers, got %v", sizes)
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("models: non-positive layer size in %v", sizes)
		}
	}
	if rng == nil {
		return nil, fmt.Errorf("models: nil RNG")
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2 / float64(in))
		wl := make([][]float64, out)
		for o := range wl {
			row := make([]float64, in)
			for i := range row {
				row[i] = rng.Normal(0, scale)
			}
			wl[o] = row
		}
		m.W = append(m.W, wl)
		m.B = append(m.B, make([]float64, out))
	}
	return m, nil
}

// ParamCount returns the total number of weights and biases.
func (m *MLP) ParamCount() int {
	n := 0
	for l := range m.W {
		for _, row := range m.W[l] {
			n += len(row)
		}
		n += len(m.B[l])
	}
	return n
}

// SizeBytes returns the dense storage footprint at 4 bytes per parameter
// (float32 deployment format), the baseline Deep Compression reduces.
func (m *MLP) SizeBytes() int { return m.ParamCount() * 4 }

// Clone returns a deep copy.
func (m *MLP) Clone() *MLP {
	out := &MLP{Sizes: append([]int(nil), m.Sizes...)}
	out.W = make([][][]float64, len(m.W))
	out.B = make([][]float64, len(m.B))
	for l := range m.W {
		out.W[l] = make([][]float64, len(m.W[l]))
		for o := range m.W[l] {
			out.W[l][o] = append([]float64(nil), m.W[l][o]...)
		}
		out.B[l] = append([]float64(nil), m.B[l]...)
	}
	return out
}

// Scratch holds one forward pass's activations, reused from call to call:
// after the first pass it costs no allocation for a model no wider than the
// widest it has run. The zero value is ready. A Scratch serves one caller at
// a time; concurrent predicts each need their own.
type Scratch struct {
	acts [][]float64
	// delta and spare are the backward pass's error terms, one layer's in
	// each, swapped as the pass walks down (training only).
	delta, spare []float64
}

// forward runs the network, returning every layer's post-activation values
// (index 0 is x itself, which is only read). The values live in s and are
// valid until s's next pass.
func (m *MLP) forward(x []float64, s *Scratch) [][]float64 {
	acts := append(s.acts[:0], x)
	cur := x
	for l := range m.W {
		var next []float64
		if len(acts) < cap(acts) {
			next = acts[:len(acts)+1][len(acts)] // the previous pass's buffer
		}
		if n := len(m.W[l]); cap(next) >= n {
			next = next[:n]
		} else {
			next = make([]float64, n)
		}
		for o := range m.W[l] {
			sum := m.B[l][o]
			row := m.W[l][o]
			for i, v := range cur {
				sum += row[i] * v
			}
			next[o] = sum
		}
		if l < len(m.W)-1 {
			for o := range next {
				if next[o] < 0 {
					next[o] = 0 // ReLU
				}
			}
		}
		acts = append(acts, next)
		cur = next
	}
	s.acts = acts
	// Softmax on the output layer, numerically stabilized.
	out := acts[len(acts)-1]
	maxV := out[0]
	for _, v := range out[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for o, v := range out {
		out[o] = math.Exp(v - maxV)
		sum += out[o]
	}
	for o := range out {
		out[o] /= sum
	}
	return acts
}

// PredictInto returns class probabilities for input x, with the
// activations and the returned probabilities written into s: they are
// valid until s's next use.
func (m *MLP) PredictInto(x []float64, s *Scratch) ([]float64, error) {
	if len(x) != m.Sizes[0] {
		return nil, fmt.Errorf("models: input size %d, model expects %d", len(x), m.Sizes[0])
	}
	acts := m.forward(x, s)
	return acts[len(acts)-1], nil
}

// TrainOptions controls SGD.
type TrainOptions struct {
	Epochs       int
	LearningRate float64
	// mask, when non-nil, marks pruned weights (mask[l][o][i] true) that
	// must stay at zero: gradient updates skip them. This is the
	// sparsity-preserving retraining mode of Deep Compression, which
	// RetrainPruned sets.
	mask [][][]bool
}

// Validate reports option errors.
func (o TrainOptions) Validate() error {
	if o.Epochs <= 0 {
		return fmt.Errorf("models: epochs must be positive, got %d", o.Epochs)
	}
	if o.LearningRate <= 0 {
		return fmt.Errorf("models: learning rate must be positive, got %v", o.LearningRate)
	}
	return nil
}

// Train runs plain SGD over the dataset (one sample at a time, shuffled
// each epoch) and returns the final average cross-entropy loss.
func (m *MLP) Train(ds *Dataset, opts TrainOptions, rng *sim.RNG) (float64, error) {
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	if ds == nil || len(ds.X) == 0 {
		return 0, fmt.Errorf("models: empty dataset")
	}
	if rng == nil {
		return 0, fmt.Errorf("models: nil RNG")
	}
	if len(ds.X[0]) != m.Sizes[0] {
		return 0, fmt.Errorf("models: dataset feature dim %d, model expects %d", len(ds.X[0]), m.Sizes[0])
	}
	var lastLoss float64
	var s Scratch
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		perm := rng.Perm(len(ds.X))
		var lossSum float64
		for _, idx := range perm {
			lossSum += m.step(ds.X[idx], ds.Y[idx], opts, &s)
		}
		lastLoss = lossSum / float64(len(ds.X))
	}
	return lastLoss, nil
}

// step performs one SGD update, its forward and backward passes in s, and
// returns the sample loss.
func (m *MLP) step(x []float64, label int, opts TrainOptions, s *Scratch) float64 {
	acts := m.forward(x, s)
	probs := acts[len(acts)-1]
	loss := -math.Log(math.Max(probs[label], 1e-12))

	// Output delta for softmax + cross-entropy: p - onehot.
	delta, spare := append(s.delta[:0], probs...), s.spare
	delta[label]--

	for l := len(m.W) - 1; l >= 0; l-- {
		prev := acts[l]
		var nextDelta []float64
		if l > 0 {
			nextDelta = append(spare[:0], make([]float64, len(prev))...)
		}
		for o := range m.W[l] {
			row := m.W[l][o]
			d := delta[o]
			if nextDelta != nil {
				for i := range row {
					nextDelta[i] += row[i] * d
				}
			}
			var rowMask []bool
			if opts.mask != nil && l < len(opts.mask) && o < len(opts.mask[l]) {
				rowMask = opts.mask[l][o]
			}
			for i := range row {
				if rowMask != nil && i < len(rowMask) && rowMask[i] {
					continue // pruned connection stays zero
				}
				row[i] -= opts.LearningRate * (d * prev[i])
			}
			m.B[l][o] -= opts.LearningRate * d
		}
		if nextDelta != nil {
			// Backprop through ReLU: zero where the activation was zero.
			for i := range nextDelta {
				if acts[l][i] <= 0 {
					nextDelta[i] = 0
				}
			}
			delta, spare = nextDelta, delta
		}
	}
	s.delta, s.spare = delta, spare
	return loss
}

// Accuracy returns the fraction of dataset samples classified correctly.
func (m *MLP) Accuracy(ds *Dataset) (float64, error) {
	if ds == nil || len(ds.X) == 0 {
		return 0, fmt.Errorf("models: empty dataset")
	}
	correct := 0
	var s Scratch
	for i := range ds.X {
		probs, err := m.PredictInto(ds.X[i], &s)
		if err != nil {
			return 0, err
		}
		best := 0 // the argmax class
		for c, p := range probs {
			if p > probs[best] {
				best = c
			}
		}
		if best == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.X)), nil
}
