// Package libvdap is OpenVDAP's edge-aware application library (paper
// §IV-E): a registry of compressed AI models (the common model library and
// pBEAM), and a uniform RESTful API over the VCU system resources, the
// Data Sharing module, and DDI — the four resource groups of Figure 8 —
// plus a Go client for application developers.
package libvdap

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/hardware"
	"repro/internal/models"
)

// ModelKind labels a registry entry's domain.
type ModelKind string

// Common model-library domains (paper Figure 8) plus the personalized
// driving-behavior model.
const (
	KindDrivingBehavior ModelKind = "driving-behavior"
	KindNLP             ModelKind = "nlp"
	KindVideo           ModelKind = "video"
	KindAudio           ModelKind = "audio"
)

// ModelInfo is registry metadata served over the API.
type ModelInfo struct {
	Name         string    `json:"name"`
	Kind         ModelKind `json:"kind"`
	Version      int       `json:"version"`
	SizeBytes    int       `json:"sizeBytes"`
	Compressed   bool      `json:"compressed"`
	Personalized bool      `json:"personalized"`
	// InferenceGFLOP is the cost-model weight for scheduling its runs.
	InferenceGFLOP float64 `json:"inferenceGflop"`
	// Class is the hardware task class of inference.
	Class string `json:"class"`
}

// entry binds metadata to an executable model (may be nil for cost-model-
// only entries like the video/audio processors).
type entry struct {
	info ModelInfo
	mlp  *models.MLP
}

// Registry is the thread-safe model store behind the API.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// RegisterMLP stores an executable model with metadata derived from it.
func (r *Registry) RegisterMLP(name string, kind ModelKind, m *models.MLP, compressed, personalized bool, gflop float64) error {
	if name == "" {
		return fmt.Errorf("libvdap: model needs a name")
	}
	if m == nil {
		return fmt.Errorf("libvdap: nil model for %q", name)
	}
	if gflop <= 0 {
		return fmt.Errorf("libvdap: model %q needs a positive inference cost", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	version := 1
	if old, ok := r.entries[name]; ok {
		version = old.info.Version + 1
	}
	r.entries[name] = &entry{
		info: ModelInfo{
			Name: name, Kind: kind, Version: version,
			SizeBytes: m.SizeBytes(), Compressed: compressed,
			Personalized:   personalized,
			InferenceGFLOP: gflop,
			Class:          hardware.DNNInference.String(),
		},
		mlp: m,
	}
	return nil
}

// RegisterCostModel stores a metadata-only entry (e.g. the compressed
// video-processing model whose execution is represented by its cost).
func (r *Registry) RegisterCostModel(info ModelInfo) error {
	if info.Name == "" {
		return fmt.Errorf("libvdap: model needs a name")
	}
	if info.InferenceGFLOP <= 0 {
		return fmt.Errorf("libvdap: model %q needs a positive inference cost", info.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.entries[info.Name]; ok {
		info.Version = old.info.Version + 1
	} else if info.Version == 0 {
		info.Version = 1
	}
	r.entries[info.Name] = &entry{info: info}
	return nil
}

// List returns all model metadata sorted by name.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Info returns one model's metadata.
func (r *Registry) Info(name string) (ModelInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return ModelInfo{}, fmt.Errorf("libvdap: unknown model %q", name)
	}
	return e.info, nil
}

// Predict runs an executable model on a feature vector, its activations and
// the returned probabilities in scratch (valid until scratch's next use). It
// refuses features the model answers with a non-finite probability.
func (r *Registry) Predict(name string, features []float64, scratch *models.Scratch) (probs []float64, class int, err error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("libvdap: unknown model %q", name)
	}
	if e.mlp == nil {
		return nil, 0, fmt.Errorf("libvdap: model %q is not executable", name)
	}
	probs, err = e.mlp.PredictInto(features, scratch)
	if err != nil {
		return nil, 0, err
	}
	class = 0
	for c, p := range probs {
		// Finite but huge features overflow the network to NaN; such an
		// answer is the input's fault and has no JSON encoding.
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, 0, fmt.Errorf("libvdap: model %q has no finite output for these features", name)
		}
		if p > probs[class] {
			class = c
		}
	}
	return probs, class, nil
}

// DefaultCommonLibrary registers the paper's common-model-library entries:
// compressed NLP, video, and audio models represented by their scheduling
// cost (their execution paths are the tasks-package workloads).
func DefaultCommonLibrary(r *Registry) error {
	common := []ModelInfo{
		{Name: "nlp-voice-command", Kind: KindNLP, SizeBytes: 18 << 20, Compressed: true, InferenceGFLOP: 1.8, Class: hardware.DNNInference.String()},
		{Name: "video-object-detect", Kind: KindVideo, SizeBytes: 44 << 20, Compressed: true, InferenceGFLOP: hardware.InceptionV3GFLOP, Class: hardware.DNNInference.String()},
		{Name: "audio-event-detect", Kind: KindAudio, SizeBytes: 9 << 20, Compressed: true, InferenceGFLOP: 0.9, Class: hardware.DNNInference.String()},
	}
	for _, info := range common {
		if err := r.RegisterCostModel(info); err != nil {
			return err
		}
	}
	return nil
}
