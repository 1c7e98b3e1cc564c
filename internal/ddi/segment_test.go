package ddi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// sealedFixture builds a store with its records sealed into segments and
// returns the dir, the store, and the segment file paths.
func sealedFixture(t *testing.T, n int) (string, *DiskStore, []string) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.SetSealPolicy(0, time.Minute)
	for i := 0; i < n; i++ {
		r := rec(SourceOBD, time.Duration(i)*time.Second, float64(i))
		if i%3 == 0 {
			r.Source = SourceGPS
		}
		if _, err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments sealed: %v %v", matches, err)
	}
	return dir, s, matches
}

// TestSegmentRoundTrip: sealed columns decode back byte-identical.
func TestSegmentRoundTrip(t *testing.T) {
	_, s, paths := sealedFixture(t, 500)
	total := 0
	for _, p := range paths {
		cols, err := readSegmentFile(p)
		if err != nil {
			t.Fatal(err)
		}
		total += cols.rows()
		for i := 0; i < cols.rows(); i++ {
			id := cols.id[i]
			want, ok := s.Get(id)
			if !ok {
				t.Fatalf("record %d missing from store", id)
			}
			if int64(want.At) != cols.at[i] || want.X != cols.x[i] ||
				want.Source != cols.dict[cols.src[i]] ||
				string(want.Payload) != string(cols.payload(i)) {
				t.Fatalf("row %d of %s decodes wrong", i, p)
			}
		}
	}
	if total != 500 {
		t.Fatalf("segments hold %d rows, want 500", total)
	}
}

// TestOpenRemovesStraySealTmp: a crash mid-seal leaves a half-written
// .tmp segment; the next open must sweep it and recover every record
// from the WAL.
func TestOpenRemovesStraySealTmp(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Put(rec(SourceOBD, time.Duration(i)*time.Second, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, segName(7)+".tmp")
	if err := os.WriteFile(stray, []byte("half-written seal"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("stray tmp blocked open: %v", err)
	}
	defer s2.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray .tmp survived open")
	}
	if s2.Count() != 10 {
		t.Fatalf("count = %d, want 10", s2.Count())
	}
}

// TestSealCrashWALReplayDedupes: a crash between segment publish and WAL
// truncation leaves sealed records still in the log. Replay must skip
// them — the segment is authoritative — instead of doubling the store.
func TestSealCrashWALReplayDedupes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Put(rec(SourceOBD, time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "ddi.log")
	saved, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the pre-seal WAL, as if truncation never happened.
	if err := os.WriteFile(walPath, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 10 {
		t.Fatalf("count after replay = %d, want 10 (sealed records doubled?)", s2.Count())
	}
	// IDs must keep advancing past the sealed ones.
	id, err := s2.Put(rec(SourceOBD, time.Minute, 1))
	if err != nil {
		t.Fatal(err)
	}
	if id != 11 {
		t.Fatalf("next ID = %d, want 11", id)
	}
}

// TestCorruptSegmentTrailerRefusesOpen: open validates every segment's
// framed trailer; damage there is real corruption (publish is atomic via
// tmp+rename) and must refuse the open with context, mirroring the WAL's
// mid-file contract.
func TestCorruptSegmentTrailerRefusesOpen(t *testing.T) {
	_, s, paths := sealedFixture(t, 100)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip bytes just ahead of the 12-byte tail frame: inside the trailer.
	for i := len(raw) - 40; i < len(raw)-12; i++ {
		raw[i] ^= 0xff
	}
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDiskStore(filepath.Dir(paths[0]))
	if err == nil {
		t.Fatal("corrupt segment accepted")
	}
	if !strings.Contains(err.Error(), "corrupt segment") {
		t.Fatalf("corruption error missing context: %v", err)
	}
}

// TestCorruptSegmentColumnSurfacesAtScan: column blocks validate lazily —
// damage inside one leaves the open cheap (trailer intact) but the first
// query that decodes the segment must fail its block CRC loudly.
func TestCorruptSegmentColumnSurfacesAtScan(t *testing.T) {
	_, s, paths := sealedFixture(t, 100)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := len(segHeadMagic); i < len(segHeadMagic)+16; i++ {
		raw[i] ^= 0xff
	}
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDiskStore(filepath.Dir(paths[0]))
	if err != nil {
		t.Fatalf("trailer-valid segment blocked open: %v", err)
	}
	defer s2.Close()
	it := s2.Scan(Query{})
	for it.Next() {
	}
	if it.Err() == nil || !strings.Contains(it.Err().Error(), "corrupt segment") {
		t.Fatalf("column corruption not surfaced: %v", it.Err())
	}
}

// frameSegment wraps column bytes and a trailer in a segment frame whose
// magics, length and checksum hold, so what is inside is judged on its
// content: the file a hostile or buggy writer leaves, not a flipped bit.
func frameSegment(cols, trailer []byte) []byte {
	file := append([]byte(segHeadMagic), cols...)
	file = append(file, trailer...)
	file = binary.LittleEndian.AppendUint32(file, uint32(len(trailer)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(trailer))
	return append(file, segTailMagic...)
}

// tinySegment is a sealed three-row segment: two sources, an empty payload.
func tinySegment(t testing.TB) []byte {
	t.Helper()
	file, err := encodeSegment(&segCols{
		id: []uint64{1, 2, 3}, at: []int64{1e9, 2e9, 3e9},
		src: []uint8{0, 1, 0}, dict: []Source{SourceOBD, SourceGPS},
		x: []float64{1, 2, 3}, y: []float64{-1, -2, -3},
		payOff: []uint32{0, 2, 2, 5}, pay: []byte("abcde"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// rewriteSegment lets edit change a segment's trailer and column bytes and
// frames the result again.
func rewriteSegment(t testing.TB, file []byte, edit func(tr *segTrailer, cols *[]byte)) []byte {
	t.Helper()
	tr, _, err := parseSegment(file, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	trLen := int(binary.LittleEndian.Uint32(file[len(file)-len(segTailMagic)-8:]))
	cols := slices.Clone(file[len(segHeadMagic) : len(file)-len(segTailMagic)-8-trLen])
	edit(tr, &cols)
	trailer, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return frameSegment(cols, trailer)
}

// pointBlock appends body to the column bytes and points the named block
// of the directory at it.
func pointBlock(tr *segTrailer, cols *[]byte, name string, body []byte) {
	for i := range tr.Blocks {
		if b := &tr.Blocks[i]; b.Name == name {
			b.Off, b.Len, b.CRC = int64(len(segHeadMagic)+len(*cols)), int64(len(body)), crc32.ChecksumIEEE(body)
		}
	}
	*cols = append(*cols, body...)
}

// hostileSegments are files whose frame and checksums hold and whose
// content must still be refused. The first panicked the first query that
// touched it (makeslice: len out of range); the second allocated 7 GB and
// was accepted as 200 million zero rows.
func hostileSegments(t testing.TB) map[string][]byte {
	good := tinySegment(t)
	trailer := func(edit func(tr *segTrailer)) []byte {
		return rewriteSegment(t, good, func(tr *segTrailer, _ *[]byte) { edit(tr) })
	}
	return map[string][]byte{
		"count -1, no blocks":   frameSegment(nil, []byte(`{"zone":{"count":-1},"blocks":[]}`)),
		"count 200M, no blocks": frameSegment(nil, []byte(`{"zone":{"count":200000000},"blocks":[]}`)),
		"count 0":               trailer(func(tr *segTrailer) { tr.Zone.Count = 0 }),
		"count past the blocks": trailer(func(tr *segTrailer) { tr.Zone.Count = 4 }),
		"block missing":         trailer(func(tr *segTrailer) { tr.Blocks = tr.Blocks[:len(tr.Blocks)-1] }),
		"block twice":           trailer(func(tr *segTrailer) { tr.Blocks[6] = tr.Blocks[0] }),
		"unknown block":         trailer(func(tr *segTrailer) { tr.Blocks[6].Name = "idx" }),
		"negative block length": trailer(func(tr *segTrailer) { tr.Blocks[2].Len = -1 }),
		"block offset wraps":    trailer(func(tr *segTrailer) { tr.Blocks[2].Off, tr.Blocks[2].Len = math.MaxInt64, 2 }),
		"block inside the head": trailer(func(tr *segTrailer) { tr.Blocks[2].Off = 0 }),
		"257 sources":           trailer(func(tr *segTrailer) { tr.Zone.Sources = make([]Source, 257) }),
		"payload lengths wrap uint32": rewriteSegment(t, good, func(tr *segTrailer, cols *[]byte) {
			pointBlock(tr, cols, blkPLen, binary.AppendUvarint(binary.AppendUvarint([]byte{5}, math.MaxUint32), 0))
		}),
		"source run past the rows": rewriteSegment(t, good, func(tr *segTrailer, cols *[]byte) {
			pointBlock(tr, cols, blkSrc, binary.AppendUvarint([]byte{0}, 1<<63))
		}),
	}
}

// TestHostileSegmentRefused: a segment that frames and checksums correctly
// is still untrusted input. Each of hostileSegments must be refused as a
// corrupt segment — at open when the trailer gives it away, at the first
// scan when only a column does — without panicking and without allocating
// what the file states instead of what it holds.
func TestHostileSegmentRefused(t *testing.T) {
	for name, file := range hostileSegments(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(1)), file, 0o644); err != nil {
				t.Fatal(err)
			}
			// allocated runs the step that should refuse the file.
			allocated := func(step func() error) (uint64, error) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := step()
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc, err
			}
			var s *DiskStore
			grew, err := allocated(func() (err error) {
				s, err = OpenDiskStore(dir)
				return err
			})
			if err == nil {
				defer s.Close()
				grew, err = allocated(func() error {
					it := s.Scan(Query{})
					for it.Next() {
					}
					return it.Err()
				})
			}
			if err == nil || !strings.Contains(err.Error(), "corrupt segment") {
				t.Fatalf("not refused as a corrupt segment: %v", err)
			}
			if grew > 1<<20 {
				t.Fatalf("refusing a %d-byte file allocated %d bytes", len(file), grew)
			}
		})
	}
}

// frameFuzzedSegment reads data as a two-byte trailer length, that much
// trailer JSON and then column bytes, and frames them as a segment file. If
// the trailer parses, each block's checksum is set to match the bytes it
// points at — the fuzzer cannot guess a CRC — so mutated columns reach
// their decoders instead of dying at the checksum.
func frameFuzzedSegment(data []byte) []byte {
	if len(data) < 2 {
		return frameSegment(nil, nil)
	}
	n := min(int(binary.LittleEndian.Uint16(data)), len(data)-2)
	trailer, cols := data[2:2+n], data[2+n:]
	var tr segTrailer
	if json.Unmarshal(trailer, &tr) == nil {
		body := frameSegment(cols, nil)
		for i := range tr.Blocks {
			if b := &tr.Blocks[i]; b.Len >= 0 && b.Off >= 0 && b.Len <= int64(len(body))-b.Off {
				b.CRC = crc32.ChecksumIEEE(body[b.Off : b.Off+b.Len])
			}
		}
		if fixed, err := json.Marshal(&tr); err == nil {
			trailer = fixed
		}
	}
	return frameSegment(cols, trailer)
}

// FuzzDecodeSegment feeds arbitrary bytes to the segment reader, raw and
// again behind a valid frame with matching block checksums. It must refuse
// them as a corrupt segment or decode them, never panic, and never
// allocate beyond a bound set by the file's length; and what it accepts
// must survive encodeSegment and a second decode with every column equal.
// The seed corpus (testdata/fuzz) is tinySegment and hostileSegments:
// whole files for the first three, frameFuzzedSegment's input for the rest.
func FuzzDecodeSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegment(t, data)
		checkSegment(t, frameFuzzedSegment(data))
	})
}

func checkSegment(t *testing.T, file []byte) {
	decode := func(file []byte) (*segCols, error) {
		tr, raw, err := parseSegment(file, "fuzz")
		if err != nil {
			return nil, err
		}
		return decodeSegment(tr, raw, "fuzz")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cols, err := decode(file)
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(file)+1<<20); grew > limit {
		t.Fatalf("decoding a %d-byte file allocated %d bytes, bound %d", len(file), grew, limit)
	}
	if err != nil {
		if !strings.Contains(err.Error(), "corrupt segment") {
			t.Fatalf("refused, but not as a corrupt segment: %v", err)
		}
		return
	}
	again, err := encodeSegment(cols)
	if err != nil {
		t.Fatalf("accepted segment does not encode: %v", err)
	}
	back, err := decode(again)
	if err != nil {
		t.Fatalf("accepted segment does not survive a round trip: %v", err)
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	if !slices.Equal(cols.id, back.id) || !slices.Equal(cols.at, back.at) ||
		!slices.Equal(cols.src, back.src) || !slices.Equal(cols.dict, back.dict) ||
		!slices.Equal(bits(cols.x), bits(back.x)) || !slices.Equal(bits(cols.y), bits(back.y)) ||
		!slices.Equal(cols.payOff, back.payOff) || !bytes.Equal(cols.pay, back.pay) ||
		cols.idSorted != back.idSorted {
		t.Fatalf("round trip changed the columns:\n%+v\n%+v", cols, back)
	}
}

// TestTornSegmentTailRefusesOpen: a segment cut short (torn tail) cannot
// be a crash artifact either — rename is atomic — so open refuses.
func TestTornSegmentTailRefusesOpen(t *testing.T) {
	_, s, paths := sealedFixture(t, 100)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDiskStore(filepath.Dir(paths[0]))
	if err == nil {
		t.Fatal("torn segment accepted")
	}
	if !strings.Contains(err.Error(), "corrupt segment") {
		t.Fatalf("torn-tail error missing context: %v", err)
	}
}

// TestLazySegmentDecode: pruned segments must never read their files —
// deleting the file out from under a fully-pruned query must not break
// it, while a query that needs the segment fails loudly.
func TestLazySegmentDecode(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetSealPolicy(0, time.Minute)
	for i := 0; i < 100; i++ {
		if _, err := s.Put(rec(SourceOBD, time.Duration(i)*time.Second, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// Reopen so columns are not resident, then remove the files.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix))
	for _, p := range paths {
		os.Remove(p)
	}
	// Fully pruned: window far past the data — zone maps answer alone.
	if got := s.Select(Query{From: time.Hour}); len(got) != 0 {
		t.Fatalf("pruned query returned %d records", len(got))
	}
	// Not pruned: the plan must surface the read failure via Err.
	it := s.Scan(Query{})
	for it.Next() {
	}
	if it.Err() == nil {
		t.Fatal("missing segment file did not surface an error")
	}
}
