package ddi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"
)

// Write-ahead log: the durability tier in front of the memtable. Each Put
// appends one framed record to ddi.log; sealing a partition into a segment
// truncates the frames the segment now covers. The frame is
//
//	u32 body length (little-endian)
//	u32 CRC32 (IEEE) of body
//	body
//
// and the body packs one record: uvarint ID, uvarint At (ns), uvarint
// source length + source bytes, f64 X, f64 Y (LE bits), uvarint payload
// length + payload.
//
// Recovery preserves the PR 8 fail-open contract of the old JSON-lines
// log: a crash can only tear the final frame, so an incomplete frame at
// EOF is dropped and truncated away, while a complete frame whose checksum
// does not match is mid-file corruption — replay refuses to open rather
// than silently dropping durable records.

// walMaxFrame caps a frame body. A length above it cannot come from
// appendWALFrame (records are far smaller), so replay classifies it as
// corruption instead of chasing a garbage length to EOF.
const walMaxFrame = 1 << 28

// appendWALFrame appends r as one frame to dst.
func appendWALFrame(dst []byte, r *Record) []byte {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length+CRC backfilled below
	body := len(dst)
	dst = binary.AppendUvarint(dst, r.ID)
	dst = binary.AppendUvarint(dst, uint64(r.At))
	dst = binary.AppendUvarint(dst, uint64(len(r.Source)))
	dst = append(dst, r.Source...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.X))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Y))
	dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
	dst = append(dst, r.Payload...)
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(dst)-body))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.ChecksumIEEE(dst[body:]))
	return dst
}

// decodeWALBody unpacks one frame body into r.
func decodeWALBody(body []byte, r *Record) error {
	pos := 0
	uv := func() (uint64, bool) {
		v, w := binary.Uvarint(body[pos:])
		if w <= 0 {
			return 0, false
		}
		pos += w
		return v, true
	}
	id, ok := uv()
	if !ok {
		return fmt.Errorf("truncated id")
	}
	if id == 0 {
		return fmt.Errorf("zero id") // Put assigns from 1
	}
	at, ok := uv()
	if !ok {
		return fmt.Errorf("truncated timestamp")
	}
	// Lengths compare as uint64 against what is left: converted to int
	// first, a huge one wraps negative and slips past the bound.
	srcLen, ok := uv()
	if !ok || srcLen > uint64(len(body)-pos) {
		return fmt.Errorf("truncated source")
	}
	src := body[pos : pos+int(srcLen)]
	pos += int(srcLen)
	if pos+16 > len(body) {
		return fmt.Errorf("truncated coordinates")
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(body[pos:]))
	y := math.Float64frombits(binary.LittleEndian.Uint64(body[pos+8:]))
	pos += 16
	payLen, ok := uv()
	if !ok || payLen != uint64(len(body)-pos) {
		return fmt.Errorf("truncated payload")
	}
	r.ID = id
	r.At = time.Duration(at)
	r.Source = Source(src)
	r.X, r.Y = x, y
	r.Payload = body[pos:]
	// Put validated every record it framed, so one that fails here (a
	// timestamp past int64, no source, no payload) was never written.
	return r.Validate()
}

// replayWAL reads path and calls emit for every intact frame. It returns
// the offset to truncate to when the final frame is torn (-1 when the file
// is clean), and refuses with a corruption error on any complete frame
// that fails its checksum or decode.
func replayWAL(path string, emit func(r *Record)) (truncateAt int64, err error) {
	data, rerr := os.ReadFile(path)
	if os.IsNotExist(rerr) {
		return -1, nil
	}
	if rerr != nil {
		return -1, fmt.Errorf("open store log: %w", rerr)
	}
	offset := 0
	for offset < len(data) {
		rest := data[offset:]
		if len(rest) < 8 {
			return int64(offset), nil // torn header at EOF
		}
		bodyLen := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if bodyLen > walMaxFrame {
			return -1, fmt.Errorf("ddi: corrupt store log %s at offset %d: frame length %d", path, offset, bodyLen)
		}
		if len(rest) < 8+int(bodyLen) {
			return int64(offset), nil // torn body at EOF
		}
		body := rest[8 : 8+int(bodyLen)]
		if crc32.ChecksumIEEE(body) != sum {
			return -1, fmt.Errorf("ddi: corrupt store log %s at offset %d: checksum mismatch", path, offset)
		}
		var r Record
		if derr := decodeWALBody(body, &r); derr != nil {
			return -1, fmt.Errorf("ddi: corrupt store log %s at offset %d: %v", path, offset, derr)
		}
		emit(&r)
		offset += 8 + int(bodyLen)
	}
	return -1, nil
}
