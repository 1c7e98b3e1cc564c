package ddi

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/huffman"
)

// Segment file format (seg-NNNNNNNN.vseg): an immutable, columnar,
// time-partitioned run of records sorted by (At, ID).
//
//	"VSEG1\n"                      6-byte head magic
//	column blocks, back to back    per-column compression, see below
//	trailer JSON                   zone map + block directory
//	u32 trailer length             little-endian
//	u32 trailer CRC32 (IEEE)
//	"VSGF"                         4-byte tail magic
//
// Column encodings: At is delta+uvarint (sorted, so deltas are
// non-negative), ID is zigzag-delta+uvarint, Source is RLE over the zone
// map's dictionary, X/Y are raw little-endian float64, payload lengths are
// uvarint, and the payload blob is one huffman block (with a stored
// fallback when entropy coding does not pay). Segments are written to a
// .tmp file and renamed into place, so a crash during seal leaves either
// no segment or a whole one; any file that fails validation is mid-file
// corruption and refuses the open, mirroring the WAL contract.

const (
	segHeadMagic = "VSEG1\n"
	segTailMagic = "VSGF"
	segSuffix    = ".vseg"
)

// segment block names, fixed order in the file.
const (
	blkAt   = "at"
	blkID   = "id"
	blkSrc  = "src"
	blkX    = "x"
	blkY    = "y"
	blkPLen = "plen"
	blkPay  = "pay"
)

// segBlock locates one encoded column inside the segment file.
type segBlock struct {
	Name string `json:"name"`
	// Off/Len bound the encoded bytes (Off is relative to file start).
	Off int64 `json:"off"`
	Len int64 `json:"len"`
	// Enc names the encoding: delta, zigzag, rle, f64, uvarint, huff, raw.
	Enc string `json:"enc"`
	// CRC covers the encoded bytes.
	CRC uint32 `json:"crc"`
}

// segTrailer is the JSON footer: the zone map plus the block directory.
type segTrailer struct {
	Zone   ZoneMap    `json:"zone"`
	Blocks []segBlock `json:"blocks"`
}

// check holds the trailer — untrusted JSON — to the file it arrived in,
// before decodeSegment sizes anything from it: each of the seven column
// blocks exactly once and inside the file, and a row count those blocks
// can hold (x and y take eight bytes a row, the varint columns at least
// one), so a decode allocates in proportion to the file, never to a number
// the file merely states. It returns what is wrong, or "".
func (tr *segTrailer) check(fileLen int) string {
	n := int64(tr.Zone.Count)
	if n < 1 { // encodeSegment never seals an empty segment
		return fmt.Sprintf("row count %d", n)
	}
	if len(tr.Zone.Sources) > math.MaxUint8+1 {
		return fmt.Sprintf("%d sources overflow the one-byte dictionary index", len(tr.Zone.Sources))
	}
	minLen := map[string]int64{blkAt: n, blkID: n, blkSrc: 2, blkX: 8 * n, blkY: 8 * n, blkPLen: n, blkPay: 0}
	if len(tr.Blocks) != len(minLen) {
		return fmt.Sprintf("%d blocks, want %d", len(tr.Blocks), len(minLen))
	}
	for _, b := range tr.Blocks {
		need, ok := minLen[b.Name]
		if !ok {
			return fmt.Sprintf("block %q: unknown or repeated", b.Name)
		}
		delete(minLen, b.Name)
		if b.Len < 0 || b.Off < int64(len(segHeadMagic)) || b.Len > int64(fileLen)-b.Off {
			return fmt.Sprintf("block %s: out of bounds", b.Name)
		}
		if fixed := b.Name == blkX || b.Name == blkY; b.Len < need || fixed && b.Len != need {
			return fmt.Sprintf("block %s: %d bytes cannot hold %d rows", b.Name, b.Len, n)
		}
	}
	return ""
}

// segCols holds a segment's decoded columns. Rows are sorted by (At, ID).
// The struct is immutable once published; payloads are subslices of pay.
type segCols struct {
	id     []uint64
	at     []int64 // nanoseconds
	src    []uint8 // index into dict
	dict   []Source
	x, y   []float64
	payOff []uint32 // len(id)+1 offsets into pay
	pay    []byte
	// idSorted is true when the id column is monotonically increasing
	// (in-order ingest), enabling binary-searched point lookups.
	idSorted bool
}

func (c *segCols) rows() int { return len(c.id) }

// payload returns row i's payload view.
func (c *segCols) payload(i int) []byte { return c.pay[c.payOff[i]:c.payOff[i+1]] }

// record materialises row i; the payload aliases the column arena.
func (c *segCols) record(i int) Record {
	return Record{
		ID: c.id[i], Source: c.dict[c.src[i]], At: time.Duration(c.at[i]),
		X: c.x[i], Y: c.y[i], Payload: c.payload(i),
	}
}

// buildZoneMap computes the zone map over the columns.
func (c *segCols) buildZoneMap() ZoneMap {
	z := ZoneMap{Count: len(c.id)}
	if len(c.id) == 0 {
		return z
	}
	z.MinAt, z.MaxAt = time.Duration(c.at[0]), time.Duration(c.at[len(c.at)-1])
	z.MinID, z.MaxID = c.id[0], c.id[0]
	z.MinX, z.MaxX = c.x[0], c.x[0]
	z.MinY, z.MaxY = c.y[0], c.y[0]
	z.MinPayload = int(c.payOff[1] - c.payOff[0])
	z.MaxPayload = z.MinPayload
	z.Sources = append([]Source(nil), c.dict...)
	for i := 0; i < len(c.id); i++ {
		if c.id[i] < z.MinID {
			z.MinID = c.id[i]
		}
		if c.id[i] > z.MaxID {
			z.MaxID = c.id[i]
		}
		if c.x[i] < z.MinX {
			z.MinX = c.x[i]
		}
		if c.x[i] > z.MaxX {
			z.MaxX = c.x[i]
		}
		if c.y[i] < z.MinY {
			z.MinY = c.y[i]
		}
		if c.y[i] > z.MaxY {
			z.MaxY = c.y[i]
		}
		p := int(c.payOff[i+1] - c.payOff[i])
		if p < z.MinPayload {
			z.MinPayload = p
		}
		if p > z.MaxPayload {
			z.MaxPayload = p
		}
		z.SumX += c.x[i]
		z.SumY += c.y[i]
		z.SumAt += float64(c.at[i])
		z.SumPayload += float64(p)
	}
	return z
}

// segment is one immutable on-disk run. Columns decode lazily on first
// touch (under sync.Once, safe for concurrent readers); a pruned segment
// never reads its file.
type segment struct {
	path string
	seq  uint64
	zm   ZoneMap

	once sync.Once
	cols *segCols
	err  error

	// idIdx is a lazily built permutation of rows sorted by ID, for point
	// lookups when the id column is not already sorted.
	idOnce sync.Once
	idIdx  []uint32
}

// load decodes the segment's columns, reading the file on first use.
func (s *segment) load() (*segCols, error) {
	s.once.Do(func() {
		if s.cols != nil {
			return
		}
		s.cols, s.err = readSegmentFile(s.path)
	})
	return s.cols, s.err
}

// findID returns the row holding id, or -1.
func (s *segment) findID(id uint64) int {
	cols, err := s.load()
	if err != nil {
		return -1
	}
	if cols.idSorted {
		i := sort.Search(len(cols.id), func(i int) bool { return cols.id[i] >= id })
		if i < len(cols.id) && cols.id[i] == id {
			return i
		}
		return -1
	}
	s.idOnce.Do(func() {
		s.idIdx = make([]uint32, len(cols.id))
		for i := range s.idIdx {
			s.idIdx[i] = uint32(i)
		}
		sort.Slice(s.idIdx, func(a, b int) bool { return cols.id[s.idIdx[a]] < cols.id[s.idIdx[b]] })
	})
	i := sort.Search(len(s.idIdx), func(i int) bool { return cols.id[s.idIdx[i]] >= id })
	if i < len(s.idIdx) && cols.id[s.idIdx[i]] == id {
		return int(s.idIdx[i])
	}
	return -1
}

// ---------------------------------------------------------------------------
// encoding

// appendUvarint appends v as a varint.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// zigzag maps signed deltas onto unsigned varint space.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeSegment renders cols into the segment wire format.
func encodeSegment(cols *segCols) ([]byte, error) {
	n := cols.rows()
	if n == 0 {
		return nil, fmt.Errorf("ddi: refusing to seal an empty segment")
	}
	out := make([]byte, 0, 64+n*12+len(cols.pay)/2)
	out = append(out, segHeadMagic...)

	tr := segTrailer{Zone: cols.buildZoneMap()}
	block := func(name, enc string, body []byte) {
		tr.Blocks = append(tr.Blocks, segBlock{
			Name: name, Off: int64(len(out)), Len: int64(len(body)),
			Enc: enc, CRC: crc32.ChecksumIEEE(body),
		})
		out = append(out, body...)
	}

	var buf []byte
	// At: delta+uvarint over the sorted column.
	buf = appendUvarint(buf[:0], uint64(cols.at[0]))
	for i := 1; i < n; i++ {
		buf = appendUvarint(buf, uint64(cols.at[i]-cols.at[i-1]))
	}
	block(blkAt, "delta", buf)
	// ID: zigzag-delta+uvarint (not monotonic under out-of-order ingest).
	buf = appendUvarint(buf[:0], cols.id[0])
	for i := 1; i < n; i++ {
		buf = appendUvarint(buf, zigzag(int64(cols.id[i])-int64(cols.id[i-1])))
	}
	block(blkID, "zigzag", buf)
	// Source: RLE (dictIdx, runLen) pairs.
	buf = buf[:0]
	for i := 0; i < n; {
		j := i + 1
		for j < n && cols.src[j] == cols.src[i] {
			j++
		}
		buf = appendUvarint(buf, uint64(cols.src[i]))
		buf = appendUvarint(buf, uint64(j-i))
		i = j
	}
	block(blkSrc, "rle", buf)
	// X/Y: raw f64 little-endian.
	buf = buf[:0]
	for _, v := range cols.x {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	block(blkX, "f64", buf)
	buf = buf[:0]
	for _, v := range cols.y {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	block(blkY, "f64", buf)
	// Payload lengths: uvarint.
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = appendUvarint(buf, uint64(cols.payOff[i+1]-cols.payOff[i]))
	}
	block(blkPLen, "uvarint", buf)
	// Payload blob: huffman unless entropy coding loses.
	if len(cols.pay) > 0 {
		enc, err := huffman.AppendEncode(buf[:0], cols.pay)
		if err == nil && len(enc) < len(cols.pay) {
			block(blkPay, "huff", enc)
		} else {
			block(blkPay, "raw", cols.pay)
		}
	} else {
		block(blkPay, "raw", nil)
	}

	trailer, err := json.Marshal(&tr)
	if err != nil {
		return nil, fmt.Errorf("ddi: marshal segment trailer: %w", err)
	}
	out = append(out, trailer...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(trailer)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(trailer))
	out = append(out, segTailMagic...)
	return out, nil
}

// writeSegmentFile seals cols as dir/seg-NNNNNNNN.vseg via tmp+rename and
// returns the in-memory segment (columns already resident — a segment
// sealed this session never re-reads its own file).
func writeSegmentFile(dir string, seq uint64, cols *segCols) (*segment, error) {
	data, err := encodeSegment(cols)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, segName(seq))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, fmt.Errorf("ddi: write segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("ddi: publish segment: %w", err)
	}
	seg := &segment{path: path, seq: seq, zm: cols.buildZoneMap(), cols: cols}
	seg.once.Do(func() {}) // columns are resident; disarm lazy load
	return seg, nil
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%08d%s", seq, segSuffix) }

// parseSegSeq extracts NNNNNNNN from seg-NNNNNNNN.vseg, or false.
func parseSegSeq(name string) (uint64, bool) {
	if len(name) != len("seg-00000000")+len(segSuffix) ||
		name[:4] != "seg-" || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[4 : len(name)-len(segSuffix)] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// readSegmentTrailer validates the file frame and returns the trailer
// without decoding any column.
func readSegmentTrailer(path string) (*segTrailer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ddi: read segment %s: %w", path, err)
	}
	tr, _, err := parseSegment(data, path)
	return tr, err
}

// parseSegment validates framing and returns the trailer plus the raw
// bytes for block decoding.
func parseSegment(data []byte, path string) (*segTrailer, []byte, error) {
	tail := len(segTailMagic) + 8
	if len(data) < len(segHeadMagic)+tail || string(data[:len(segHeadMagic)]) != segHeadMagic {
		return nil, nil, fmt.Errorf("ddi: corrupt segment %s: bad frame", path)
	}
	if string(data[len(data)-len(segTailMagic):]) != segTailMagic {
		return nil, nil, fmt.Errorf("ddi: corrupt segment %s: torn or missing tail", path)
	}
	trLen := binary.LittleEndian.Uint32(data[len(data)-tail:])
	trCRC := binary.LittleEndian.Uint32(data[len(data)-tail+4:])
	trEnd := len(data) - tail
	if int(trLen) > trEnd-len(segHeadMagic) {
		return nil, nil, fmt.Errorf("ddi: corrupt segment %s: trailer length %d", path, trLen)
	}
	trailer := data[trEnd-int(trLen) : trEnd]
	if crc32.ChecksumIEEE(trailer) != trCRC {
		return nil, nil, fmt.Errorf("ddi: corrupt segment %s: trailer checksum mismatch", path)
	}
	var tr segTrailer
	if err := json.Unmarshal(trailer, &tr); err != nil {
		return nil, nil, fmt.Errorf("ddi: corrupt segment %s: %w", path, err)
	}
	if why := tr.check(len(data)); why != "" {
		return nil, nil, fmt.Errorf("ddi: corrupt segment %s: %s", path, why)
	}
	return &tr, data, nil
}

// readSegmentFile reads and fully decodes a segment's columns.
func readSegmentFile(path string) (*segCols, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ddi: read segment %s: %w", path, err)
	}
	tr, raw, err := parseSegment(data, path)
	if err != nil {
		return nil, err
	}
	return decodeSegment(tr, raw, path)
}

// decodeSegment reverses encodeSegment. tr has passed check against data.
func decodeSegment(tr *segTrailer, data []byte, path string) (*segCols, error) {
	n := tr.Zone.Count
	cols := &segCols{
		id: make([]uint64, n), at: make([]int64, n), src: make([]uint8, n),
		x: make([]float64, n), y: make([]float64, n),
		payOff: make([]uint32, n+1),
		dict:   append([]Source(nil), tr.Zone.Sources...),
	}
	corrupt := func(block string, why string) error {
		return fmt.Errorf("ddi: corrupt segment %s: block %s: %s", path, block, why)
	}
	body := func(b segBlock) ([]byte, error) {
		blk := data[b.Off : b.Off+b.Len]
		if crc32.ChecksumIEEE(blk) != b.CRC {
			return nil, corrupt(b.Name, "checksum mismatch")
		}
		return blk, nil
	}
	readVarints := func(name string, blk []byte, out func(i int, v uint64) error) error {
		pos := 0
		for i := 0; i < n; i++ {
			v, w := binary.Uvarint(blk[pos:])
			if w <= 0 {
				return corrupt(name, "truncated varint")
			}
			pos += w
			if err := out(i, v); err != nil {
				return err
			}
		}
		return nil
	}
	for _, b := range tr.Blocks {
		blk, err := body(b)
		if err != nil {
			return nil, err
		}
		switch b.Name {
		case blkAt:
			var prev int64
			if err := readVarints(b.Name, blk, func(i int, v uint64) error {
				if i == 0 {
					prev = int64(v)
				} else {
					prev += int64(v)
				}
				cols.at[i] = prev
				return nil
			}); err != nil {
				return nil, err
			}
		case blkID:
			var prev int64
			if err := readVarints(b.Name, blk, func(i int, v uint64) error {
				if i == 0 {
					prev = int64(v)
				} else {
					prev += unzigzag(v)
				}
				cols.id[i] = uint64(prev)
				return nil
			}); err != nil {
				return nil, err
			}
		case blkSrc:
			pos, row := 0, 0
			for row < n {
				idx, w := binary.Uvarint(blk[pos:])
				if w <= 0 {
					return nil, corrupt(b.Name, "truncated run")
				}
				pos += w
				run, w := binary.Uvarint(blk[pos:])
				if w <= 0 || run == 0 || run > uint64(n-row) || idx >= uint64(len(cols.dict)) {
					return nil, corrupt(b.Name, "bad run")
				}
				pos += w
				for k := 0; k < int(run); k++ {
					cols.src[row] = uint8(idx)
					row++
				}
			}
		case blkX, blkY:
			dst := cols.x
			if b.Name == blkY {
				dst = cols.y
			}
			for i := 0; i < n; i++ {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(blk[8*i:]))
			}
		case blkPLen:
			var off uint32
			if err := readVarints(b.Name, blk, func(i int, v uint64) error {
				if v > uint64(math.MaxUint32-off) {
					return corrupt(b.Name, "payload offsets overflow")
				}
				cols.payOff[i] = off
				off += uint32(v)
				return nil
			}); err != nil {
				return nil, err
			}
			cols.payOff[n] = off
		case blkPay:
			switch b.Enc {
			case "raw":
				cols.pay = blk
			case "huff":
				dec, err := huffman.AppendDecode(make([]byte, 0, 2*len(blk)), blk)
				if err != nil {
					return nil, corrupt(b.Name, err.Error())
				}
				cols.pay = dec
			default:
				return nil, corrupt(b.Name, "unknown encoding "+b.Enc)
			}
		}
	}
	if int(cols.payOff[n]) != len(cols.pay) {
		return nil, corrupt(blkPay, "payload length mismatch")
	}
	cols.idSorted = true
	for i := 1; i < n; i++ {
		if cols.id[i] < cols.id[i-1] {
			cols.idSorted = false
			break
		}
	}
	return cols, nil
}
