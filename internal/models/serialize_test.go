package models

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/huffman"
)

func TestCompressedMarshalRoundTrip(t *testing.T) {
	m, ds := trainedModel(t, 70)
	c, err := Compress(m, CompressOptions{PruneFraction: 0.6, CodebookBits: 5})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCompressed(wire)
	if err != nil {
		t.Fatal(err)
	}
	// The restored model must produce identical predictions.
	a, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pa, err := a.Predict(ds.X[i])
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Predict(ds.X[i])
		if err != nil {
			t.Fatal(err)
		}
		for c := range pa {
			if pa[c] != pb[c] {
				t.Fatalf("prediction diverged after round trip at sample %d", i)
			}
		}
	}
	if got.Stats != c.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", got.Stats, c.Stats)
	}
	// The wire size should track the accounted compressed size plus gob's
	// fixed framing overhead (type descriptors, ~1 kB).
	if len(wire) > c.Stats.CompressedBytes*2+1024 {
		t.Fatalf("wire size %d far above accounted %d", len(wire), c.Stats.CompressedBytes)
	}
}

func TestUnmarshalCompressedErrors(t *testing.T) {
	if _, err := UnmarshalCompressed(nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := UnmarshalCompressed([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	empty := &Compressed{}
	if _, err := empty.Marshal(); err == nil {
		t.Fatal("layerless model marshaled")
	}
}

// hostileModel is a one-layer model whose sizes its coded indices cannot
// back: the product of sizes equals the index count only by sign or by
// wrapping.
func hostileModel(t testing.TB, sizes []int, indices int) *Compressed {
	t.Helper()
	enc, err := huffman.Encode(make([]byte, indices))
	if err != nil {
		t.Fatal(err)
	}
	return &Compressed{Sizes: sizes, Codebooks: [][]float64{{0}}, Encoded: [][]byte{enc}, Biases: [][]float64{{0}}}
}

// TestHostileSizesRefused: a shipped model with negative layer sizes, or
// sizes whose product wraps to the index count, is refused — it used to be
// accepted and to panic Decompress in make.
func TestHostileSizesRefused(t *testing.T) {
	for _, c := range []*Compressed{
		hostileModel(t, []int{-2, -3}, 6),
		hostileModel(t, []int{4, 1<<62 + 2}, 8),
	} {
		wire, err := c.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalCompressed(wire); err == nil {
			t.Errorf("sizes %v over %d bytes of indices accepted", c.Sizes, len(c.Encoded[0]))
		}
		if _, err := c.Decompress(); err == nil {
			t.Errorf("sizes %v decompressed", c.Sizes)
		}
	}
}

// FuzzUnmarshalCompressed feeds arbitrary bytes to the model wire decoder.
// It must refuse them or decode them, never panic, and never allocate
// beyond a bound set by the stream's length; and what it accepts must
// decompress, and marshal back into a stream that decodes to the same
// bytes again. The bound's constant covers encoding/gob, which reads a
// message in chunks of up to 10 MB whatever length its header declares. The
// seed corpus (testdata/fuzz) is one small trained model compressed at each
// of E7's six settings, the two hostileModel shapes, and such a header.
func FuzzUnmarshalCompressed(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := UnmarshalCompressed(data)
		if err == nil {
			_, err = c.Decompress()
		}
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(data)+16<<20); grew > limit {
			t.Fatalf("decoding a %d-byte stream allocated %d bytes, bound %d", len(data), grew, limit)
		}
		if c == nil {
			return
		}
		if err != nil {
			t.Fatalf("accepted stream does not decompress: %v", err)
		}
		wire, err := c.Marshal()
		if err != nil {
			t.Fatalf("accepted stream does not marshal: %v", err)
		}
		back, err := UnmarshalCompressed(wire)
		if err != nil {
			t.Fatalf("accepted stream does not survive a round trip: %v", err)
		}
		if again, err := back.Marshal(); err != nil || !bytes.Equal(again, wire) {
			t.Fatalf("round trip changed the model (%v):\n%+v\n%+v", err, c, back)
		}
	})
}
