package models

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// wireCompressed is the gob schema for a Compressed model. It mirrors
// Compressed but is a separate type so the wire format stays stable even
// if the in-memory struct grows fields.
type wireCompressed struct {
	Version   int
	Sizes     []int
	Codebooks [][]float64
	Encoded   [][]byte
	Biases    [][]float64
	Stats     CompressStats
}

// wireVersion is bumped on breaking format changes.
const wireVersion = 1

// Marshal serializes the compressed model into the byte stream that ships
// from the cloud to the vehicle (paper Figure 9's "download" arrow).
func (c *Compressed) Marshal() ([]byte, error) {
	if len(c.Sizes) < 2 {
		return nil, fmt.Errorf("models: compressed model has no layers")
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(wireCompressed{
		Version:   wireVersion,
		Sizes:     c.Sizes,
		Codebooks: c.Codebooks,
		Encoded:   c.Encoded,
		Biases:    c.Biases,
		Stats:     c.Stats,
	}); err != nil {
		return nil, fmt.Errorf("models: encode compressed model: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalCompressed parses a shipped model and holds every layer to its
// sizes, so what it accepts decompresses.
func UnmarshalCompressed(data []byte) (*Compressed, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("models: empty model stream")
	}
	var w wireCompressed
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("models: decode compressed model: %w", err)
	}
	if w.Version != wireVersion {
		return nil, fmt.Errorf("models: unsupported model wire version %d", w.Version)
	}
	c := &Compressed{
		Sizes:     w.Sizes,
		Codebooks: w.Codebooks,
		Encoded:   w.Encoded,
		Biases:    w.Biases,
		Stats:     w.Stats,
	}
	if len(c.Sizes) < 2 || len(c.Encoded) != len(c.Sizes)-1 {
		return nil, fmt.Errorf("models: inconsistent model stream (%d sizes, %d layers)",
			len(c.Sizes), len(c.Encoded))
	}
	for l := range c.Encoded {
		if _, err := c.layerIndices(l); err != nil {
			return nil, err
		}
	}
	return c, nil
}
