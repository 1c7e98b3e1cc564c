package ddi

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func openStore(t *testing.T) *DiskStore {
	t.Helper()
	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func rec(source Source, at time.Duration, x float64) Record {
	return Record{Source: source, At: at, X: x, Payload: []byte(`{"v":1}`)}
}

func TestOpenDiskStoreValidation(t *testing.T) {
	if _, err := OpenDiskStore(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestPutAssignsMonotonicIDs(t *testing.T) {
	s := openStore(t)
	id1, err := s.Put(rec(SourceOBD, time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Put(rec(SourceOBD, 2*time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id1 {
		t.Fatalf("ids not monotonic: %d then %d", id1, id2)
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestPutValidates(t *testing.T) {
	s := openStore(t)
	if _, err := s.Put(Record{}); err == nil {
		t.Fatal("invalid record accepted")
	}
	if _, err := s.Put(Record{Source: SourceOBD, At: -1, Payload: []byte("x")}); err == nil {
		t.Fatal("negative timestamp accepted")
	}
}

func TestGetAndSelect(t *testing.T) {
	s := openStore(t)
	id, _ := s.Put(rec(SourceOBD, 10*time.Second, 100))
	s.Put(rec(SourceGPS, 20*time.Second, 200))
	s.Put(rec(SourceOBD, 30*time.Second, 300))

	got, ok := s.Get(id)
	if !ok || got.Source != SourceOBD {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := s.Get(999); ok {
		t.Fatal("found nonexistent record")
	}

	obd := s.Select(Query{Source: SourceOBD})
	if len(obd) != 2 {
		t.Fatalf("obd select = %d", len(obd))
	}
	window := s.Select(Query{From: 15 * time.Second, To: 25 * time.Second})
	if len(window) != 1 || window[0].Source != SourceGPS {
		t.Fatalf("window select = %v", window)
	}
	near := s.Select(Query{X: 190, Y: 0, Radius: 20})
	if len(near) != 1 || near[0].X != 200 {
		t.Fatalf("spatial select = %v", near)
	}
	limited := s.Select(Query{Limit: 2})
	if len(limited) != 2 {
		t.Fatalf("limit select = %d", len(limited))
	}
}

func TestSelectTimeOrdered(t *testing.T) {
	s := openStore(t)
	// Insert out of order.
	s.Put(rec(SourceOBD, 30*time.Second, 0))
	s.Put(rec(SourceOBD, 10*time.Second, 0))
	s.Put(rec(SourceOBD, 20*time.Second, 0))
	got := s.Select(Query{})
	if len(got) != 3 {
		t.Fatal("missing records")
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].At > got[i].At {
			t.Fatalf("results out of order: %v", got)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Put(rec(SourceOBD, time.Second, 42))
	s.Put(rec(SourceWeather, 2*time.Second, 43))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 2 {
		t.Fatalf("reopened count = %d", s2.Count())
	}
	got, ok := s2.Get(id)
	if !ok || got.X != 42 {
		t.Fatalf("record lost across reopen: %+v %v", got, ok)
	}
	// IDs keep advancing after reopen.
	id3, _ := s2.Put(rec(SourceOBD, 3*time.Second, 44))
	if id3 <= id {
		t.Fatalf("ID regressed after reopen: %d", id3)
	}
}

func TestDeleteBeforeAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		s.Put(rec(SourceOBD, time.Duration(i)*time.Second, 0))
	}
	removed, err := s.DeleteBefore(6 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 5 {
		t.Fatalf("removed = %d, want 5", removed)
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d", s.Count())
	}
	// Store still writable after compaction.
	if _, err := s.Put(rec(SourceOBD, 11*time.Second, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Compaction persisted: reopen sees only survivors.
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 6 {
		t.Fatalf("reopened count = %d, want 6", s2.Count())
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	s := openStore(t)
	s.Close()
	if _, err := s.Put(rec(SourceOBD, time.Second, 0)); err == nil {
		t.Fatal("write to closed store succeeded")
	}
	if _, err := s.DeleteBefore(time.Second); err == nil {
		t.Fatal("delete on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

// TestStoreReopenFuzz: random record batches survive close/reopen cycles
// byte for byte.
func TestStoreReopenFuzz(t *testing.T) {
	dir := t.TempDir()
	rng := sim.NewRNG(77)
	want := map[uint64]Record{}
	for cycle := 0; cycle < 5; cycle++ {
		s, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if s.Count() != len(want) {
			t.Fatalf("cycle %d: reopened count %d, want %d", cycle, s.Count(), len(want))
		}
		for i := 0; i < 20; i++ {
			payload := make([]byte, 1+rng.Intn(64))
			for j := range payload {
				payload[j] = byte('a' + rng.Intn(26))
			}
			r := Record{
				Source:  SourceOBD,
				At:      time.Duration(rng.Intn(100000)) * time.Millisecond,
				X:       rng.Uniform(0, 1e4),
				Payload: payload,
			}
			id, err := s.Put(r)
			if err != nil {
				t.Fatal(err)
			}
			r.ID = id
			want[id] = r
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id, w := range want {
		got, ok := s.Get(id)
		if !ok {
			t.Fatalf("record %d lost", id)
		}
		if got.At != w.At || got.X != w.X || string(got.Payload) != string(w.Payload) {
			t.Fatalf("record %d corrupted: %+v != %+v", id, got, w)
		}
	}
}

// writeLogFixture seeds a store directory with records and then applies
// mutate to the raw log bytes, emulating what a crash or disk corruption
// leaves behind for the next open to find.
func writeLogFixture(t *testing.T, mutate func(log []byte) []byte) string {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := s.Put(rec(SourceOBD, time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ddi.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// walFrames splits a binary WAL into its whole frames.
func walFrames(t *testing.T, log []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for off := 0; off < len(log); {
		if len(log)-off < 8 {
			t.Fatalf("trailing %d bytes are not a frame header", len(log)-off)
		}
		n := int(binary.LittleEndian.Uint32(log[off:]))
		if off+8+n > len(log) {
			t.Fatalf("frame at %d overruns the log", off)
		}
		frames = append(frames, log[off:off+8+n])
		off += 8 + n
	}
	return frames
}

// TestLoadToleratesTornFinalLine: a crash mid-append leaves a final frame
// cut short. The store must open, keep every complete record, drop the
// torn tail, and stay appendable — the truncated tail must not glue
// itself onto the next record.
func TestLoadToleratesTornFinalLine(t *testing.T) {
	dir := writeLogFixture(t, func(log []byte) []byte {
		// Tear the last frame: keep only half its bytes.
		frames := walFrames(t, log)
		last := frames[len(frames)-1]
		torn := last[:len(last)/2]
		return append(bytes.Join(frames[:len(frames)-1], nil), torn...)
	})
	s, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if s.Count() != 2 {
		t.Fatalf("count after torn tail = %d, want 2", s.Count())
	}
	if _, err := s.Put(rec(SourceOBD, 9*time.Second, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The append after the torn tail must survive a reopen intact.
	s2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("reopen after torn-tail repair: %v", err)
	}
	defer s2.Close()
	if s2.Count() != 3 {
		t.Fatalf("count after repair+append = %d, want 3", s2.Count())
	}
}

// TestLoadRejectsMidFileCorruption: the same mutation in the middle of the
// log is not a crash artifact — it means stored records are gone, and the
// store must refuse to open with the corruption offset rather than
// silently skipping the line.
func TestLoadRejectsMidFileCorruption(t *testing.T) {
	dir := writeLogFixture(t, func(log []byte) []byte {
		frames := walFrames(t, log)
		// Mangle the second of three frames' body, header intact — the
		// frame is complete, so this is corruption, not a crash artifact.
		mid := frames[1]
		for i := 8; i < 8+(len(mid)-8)/2; i++ {
			mid[i] = '#'
		}
		return bytes.Join(frames, nil)
	})
	_, err := OpenDiskStore(dir)
	if err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	if !strings.Contains(err.Error(), "corrupt store log") || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("corruption error missing context: %v", err)
	}
}

// frameBodies reads data as length-prefixed chunks (one length byte each)
// and wraps every chunk in a valid WAL frame header, so mutated bytes
// reach the body decoder instead of dying at the checksum.
func frameBodies(data []byte) []byte {
	var log []byte
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		body := data[1 : 1+n]
		log = binary.LittleEndian.AppendUint32(log, uint32(n))
		log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(body))
		log = append(log, body...)
		data = data[1+n:]
	}
	return log
}

// FuzzReplayWAL feeds arbitrary bytes to the open path as ddi.log, raw and
// again behind valid frame headers. The store must refuse them with an
// error or open without panicking, must not allocate beyond a bound set
// by the log's length (a length field cannot make it reserve what the
// file does not hold), and once open must stream exactly the frames a
// bare replay decodes, in (At, ID) order — whatever order, IDs and
// duplicates the log carried. The seed corpus (testdata/fuzz) is
// writeLogFixture's log — clean, torn, mangled mid-file, reordered with a
// late and a duplicate frame, and as bare bodies for frameBodies — plus
// bodies whose length fields wrap int.
func FuzzReplayWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
		checkReplay(t, frameBodies(data))
	})
}

func checkReplay(t *testing.T, log []byte) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ddi.log")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	var want []Record
	_, refErr := replayWAL(path, func(r *Record) {
		c := *r
		c.Payload = append([]byte(nil), r.Payload...)
		want = append(want, c)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := OpenDiskStore(dir)
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(log)+4<<20); grew > limit {
		t.Fatalf("open allocated %d bytes for a %d-byte log, bound %d", grew, len(log), limit)
	}
	if err != nil {
		if refErr == nil && !strings.Contains(err.Error(), "dictionary overflow") {
			t.Fatalf("replay decoded %d frames but open refused: %v", len(want), err)
		}
		return
	}
	defer s.Close()
	if refErr != nil {
		t.Fatalf("open accepted a log the replay rejects: %v", refErr)
	}
	sortRecords(want)
	it := s.Scan(Query{})
	n := 0
	for ; it.Next(); n++ {
		if n >= len(want) {
			t.Fatalf("scan streamed more than the %d replayed rows", len(want))
		}
		got, w := it.Record(), &want[n]
		if got.ID != w.ID || got.At != w.At || got.Source != w.Source ||
			math.Float64bits(got.X) != math.Float64bits(w.X) || math.Float64bits(got.Y) != math.Float64bits(w.Y) ||
			!bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("row %d: scan %+v, replay %+v", n, *got, *w)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("scan streamed %d of the %d replayed rows", n, len(want))
	}
}

// fullScanSelect is the naive reference implementation the segment
// engine must match: walk a (At, ID)-sorted shadow copy of every stored
// record, filter with Query.Matches.
func fullScanSelect(shadow []Record, q Query) []Record {
	sorted := append([]Record(nil), shadow...)
	sortRecords(sorted)
	var out []Record
	for i := range sorted {
		if !q.Matches(&sorted[i]) {
			continue
		}
		out = append(out, sorted[i])
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out
}

// sortRecords orders rs by (At, ID); equal keys (only a hand-made WAL
// has them) keep arrival order, as the store does.
func sortRecords(rs []Record) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].At != rs[j].At {
			return rs[i].At < rs[j].At
		}
		return rs[i].ID < rs[j].ID
	})
}

// TestSelectWindowSearchMatchesFullScan: the binary-searched window is a
// pure optimization — for randomized out-of-order records and every query
// shape (open/closed/empty/inverted windows, boundary-exact times,
// source+spatial filters, limits), Select returns exactly what the full
// scan did.
func TestSelectWindowSearchMatchesFullScan(t *testing.T) {
	s := openStore(t)
	// Seal aggressively so queries cross sealed segments and the memtable.
	s.SetSealPolicy(64, 2*time.Second)
	rng := sim.NewStream(17, 0)
	sources := []Source{SourceOBD, SourceGPS, SourceCamera, SourceLiDAR}
	var shadow []Record
	for i := 0; i < 400; i++ {
		// Coarse timestamps force long equal-At runs, exercising the
		// (At, ID) tiebreak at the window boundaries.
		at := time.Duration(rng.Intn(50)) * 100 * time.Millisecond
		r := rec(sources[rng.Intn(len(sources))], at, rng.Uniform(-500, 500))
		r.Y = rng.Uniform(-500, 500)
		id, err := s.Put(r)
		if err != nil {
			t.Fatal(err)
		}
		r.ID = id
		shadow = append(shadow, r)
	}
	queries := []Query{
		{},                      // everything
		{From: 0, To: 0},        // unbounded
		{From: 2 * time.Second}, // open above
		{To: 2 * time.Second},   // bounded above only
		{From: time.Second, To: 3 * time.Second},
		{From: 2500 * time.Millisecond, To: 2500 * time.Millisecond}, // single instant
		{From: 3 * time.Second, To: time.Second},                     // inverted: empty
		{From: 10 * time.Minute},                                     // past the data
		{From: time.Second, To: 4 * time.Second, Source: SourceGPS},
		{From: time.Second, To: 4 * time.Second, X: 0, Y: 0, Radius: 200},
		{From: time.Second, To: 4 * time.Second, Limit: 7},
		{Source: SourceCamera, Limit: 3},
	}
	for qi, q := range queries {
		got := s.Select(q)
		want := fullScanSelect(shadow, q)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, full scan found %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("query %d result %d: ID %d, full scan %d", qi, i, got[i].ID, want[i].ID)
			}
		}
	}
}
