package huffman

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, data []byte) []byte {
	t.Helper()
	enc, err := Encode(data)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(data), len(dec))
	}
	return enc
}

func TestRoundTripSimple(t *testing.T) {
	roundTrip(t, []byte("hello huffman world"))
}

func TestRoundTripSingleSymbol(t *testing.T) {
	roundTrip(t, bytes.Repeat([]byte{42}, 1000))
}

func TestRoundTripSingleByte(t *testing.T) {
	roundTrip(t, []byte{7})
}

func TestRoundTripAllSymbols(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	roundTrip(t, data)
}

func TestEncodeEmpty(t *testing.T) {
	if _, err := Encode(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("err = %v, want ErrEmptyInput", err)
	}
}

func TestSkewedInputCompresses(t *testing.T) {
	// 95% zeros — the shape of pruned weight indices.
	data := make([]byte, 10000)
	for i := 0; i < len(data); i++ {
		if i%20 == 0 {
			data[i] = byte(1 + i%15)
		}
	}
	enc := roundTrip(t, data)
	if len(enc) >= len(data) {
		t.Fatalf("skewed input did not compress: %d -> %d", len(data), len(enc))
	}
	if r := float64(len(enc)) / float64(len(data)); r >= 0.6 {
		t.Fatalf("ratio = %v, want < 0.6 for 95%%-sparse input", r)
	}
}

func TestUniformRandomDoesNotExplode(t *testing.T) {
	data := make([]byte, 4096)
	state := uint32(1)
	for i := range data {
		state = state*1664525 + 1013904223
		data[i] = byte(state >> 24)
	}
	enc := roundTrip(t, data)
	// Uniform bytes are incompressible; overhead must stay bounded by the
	// sparse header (9 bytes + 2 per distinct symbol = 521 max) plus padding.
	if len(enc) > len(data)+560 {
		t.Fatalf("uniform input exploded: %d -> %d", len(data), len(enc))
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 8+256), // claims 0 length
		// Three 1-bit codes: no prefix code has them (found by
		// FuzzAppendDecode; the third code used to index past the LUT).
		{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 1, 1, 2, 1, 0xff},
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: Decode succeeded on corrupt input", i)
		}
	}
	// Truncated payload: valid header, missing bits.
	enc, err := Encode(bytes.Repeat([]byte("abcdef"), 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc[:len(enc)-20]); err == nil {
		t.Error("Decode succeeded on truncated payload")
	}
}

func TestDecodeGarbageLengthTable(t *testing.T) {
	enc := make([]byte, 8+256+16)
	enc[0] = 10 // claim 10 symbols
	// All code lengths zero -> empty decode table -> must fail.
	if _, err := Decode(enc); err == nil {
		t.Fatal("Decode succeeded with empty code table")
	}
}

func TestRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		enc, err := Encode(data)
		if err != nil {
			return false
		}
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	data := make([]byte, 64*1024)
	for i := range data {
		if i%10 == 0 {
			data[i] = byte(i % 16)
		}
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzAppendDecode feeds AppendDecode arbitrary bytes as a block — it must
// never panic, must leave dst untouched on error, and can never produce more
// than one byte per payload bit (every code is at least one bit long), so
// output and allocation are bounded by the input's length whatever the
// header claims — and then treats the same bytes as data, which must survive
// the encode -> decode round trip unchanged.
func FuzzAppendDecode(f *testing.F) {
	for _, data := range [][]byte{
		[]byte("a"),
		[]byte("abracadabra"),
		bytes.Repeat([]byte{0, 0, 0, 7}, 64),
	} {
		enc, err := Encode(data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	f.Add([]byte{})
	f.Add(make([]byte, 8+256+16))

	f.Fuzz(func(t *testing.T, in []byte) {
		prefix := []byte("kept")
		out, err := AppendDecode(prefix, in)
		if !bytes.HasPrefix(out, prefix) {
			t.Fatalf("dst prefix clobbered: %q", out)
		}
		if got := len(out) - len(prefix); err != nil && got != 0 {
			t.Fatalf("failed decode still appended %d bytes", got)
		} else if got > 8*len(in) {
			t.Fatalf("%d input bytes decoded to %d: more than one symbol per bit", len(in), got)
		}

		if len(in) > 0 {
			roundTrip(t, in) // Encode/Decode are AppendEncode/AppendDecode into fresh buffers
		}
	})
}
