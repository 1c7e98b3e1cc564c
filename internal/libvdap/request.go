package libvdap

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/ddi"
)

// queryGet returns url.ParseQuery(raw).Get(key) without building the map:
// the value of the first pair whose unescaped key is key, skipping pairs
// that contain ';' or whose key or value is badly escaped. Unescaping
// allocates only when a '%' or '+' is present.
func queryGet(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// maxBodyBytes bounds a POST body; a larger one is answered 413.
const maxBodyBytes = 1 << 20

// readBody reads the request body, at most maxBodyBytes of it, into rb's
// buffer. body is valid until rb's buffer is next written; err is what
// ended the read: nil at the end of the body, *http.MaxBytesError past the
// bound, or the transport's error.
func readBody(w http.ResponseWriter, r *http.Request, rb *reply) (body []byte, err error) {
	rb.buf.Reset()
	_, err = rb.buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return rb.buf.Bytes(), err
}

// bodyStream replays a body read by readBody as the request stream gave it:
// its bytes, then the error that ended the read (io.EOF for nil).
type bodyStream struct {
	b   []byte
	err error
}

func (s *bodyStream) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		if s.err == nil {
			return 0, io.EOF
		}
		return 0, s.err
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

// decodeJSON decodes the first JSON value of a body read by readBody into v,
// exactly as json.NewDecoder(r.Body).Decode(v) on the bounded request
// stream does: what follows the value is not read, and a value complete
// before the bound decodes even when the body runs past it.
func decodeJSON(body []byte, readErr error, v any) error {
	if err := json.NewDecoder(&bodyStream{body, readErr}).Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// decodeStatus is the reply status of a body that failed to decode: 413
// when it ran past maxBodyBytes before a value ended, 400 otherwise.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodePredict decodes a predict body read by readBody. The canonical
// shape, {"features":[numbers]} with no escapes, is parsed in place with the
// features appended to scratch[:0]; anything else goes through decodeJSON.
// Either way the result is json.Decoder's.
func decodePredict(body []byte, readErr error, scratch []float64) (PredictRequest, error) {
	if readErr == nil {
		if req, ok := parsePredict(body, scratch); ok {
			return req, nil
		}
	}
	var req PredictRequest
	err := decodeJSON(body, readErr, &req)
	return req, err
}

// decodeUpload decodes an upload body read by readBody: the canonical shape
// (keys source, x, y and payload, each at most once, no escapes) in place,
// anything else through decodeJSON. The payload is a fresh slice either
// way, since the store keeps it.
func decodeUpload(body []byte, readErr error) (UploadRequest, error) {
	if readErr == nil {
		if req, ok := parseUpload(body); ok {
			return req, nil
		}
	}
	var req UploadRequest
	err := decodeJSON(body, readErr, &req)
	return req, err
}

// parsePredict is decodePredict's fast path. ok is false for any body it
// does not fully recognise, which then falls back to encoding/json.
func parsePredict(body []byte, features []float64) (req PredictRequest, ok bool) {
	p := bodyScan{b: body}
	seen := false
	ok = p.object(func(key []byte) bool {
		if seen || string(key) != "features" {
			return false
		}
		seen = true
		if p.lit("null") {
			return true
		}
		var ok bool
		req.Features, ok = p.floats(features)
		return ok
	})
	return req, ok
}

// parseUpload is decodeUpload's fast path, with parsePredict's contract.
func parseUpload(body []byte) (req UploadRequest, ok bool) {
	p := bodyScan{b: body}
	var seen [4]bool
	ok = p.object(func(key []byte) bool {
		field, ok := -1, false
		switch string(key) {
		case "source":
			var s []byte
			s, ok = p.str()
			req.Source, field = internSource(s), 0
		case "x":
			req.X, ok = p.num()
			field = 1
		case "y":
			req.Y, ok = p.num()
			field = 2
		case "payload":
			req.Payload, ok = p.base64()
			field = 3
		}
		if field < 0 || seen[field] {
			return false
		}
		seen[field] = true
		return ok
	})
	return req, ok
}

// internSource returns the DDI's constant for a known source name, so an
// upload of one allocates no string; any other name is copied.
func internSource(b []byte) string {
	for _, src := range [...]ddi.Source{ddi.SourceUser, ddi.SourceOBD, ddi.SourceGPS,
		ddi.SourceWeather, ddi.SourceTraffic, ddi.SourceSocial} {
		if string(b) == string(src) {
			return string(src)
		}
	}
	return string(b)
}

// bodyScan scans the canonical request shapes. Every method skips leading
// whitespace and reports false on anything outside its narrow grammar.
type bodyScan struct {
	b []byte
	i int
}

func (p *bodyScan) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte after whitespace.
func (p *bodyScan) eat(c byte) bool {
	p.skipSpace()
	return p.skip(c)
}

// lit consumes the literal word if it comes next.
func (p *bodyScan) lit(word string) bool {
	p.skipSpace()
	if len(p.b)-p.i < len(word) || string(p.b[p.i:p.i+len(word)]) != word {
		return false
	}
	p.i += len(word)
	return true
}

// object consumes the whole body as one object followed by nothing but
// whitespace. For each key, a plain string, field consumes the value and
// reports whether it recognised both.
func (p *bodyScan) object(field func(key []byte) bool) bool {
	if !p.eat('{') {
		return false
	}
	for first := true; !p.eat('}'); first = false {
		if !first && !p.eat(',') {
			return false
		}
		key, ok := p.str()
		if !ok || !p.eat(':') || !field(key) {
			return false
		}
	}
	p.skipSpace()
	return p.i == len(p.b)
}

// floats consumes an array of numbers into dst[:0]. An empty array gives an
// empty, non-nil slice, as encoding/json does.
func (p *bodyScan) floats(dst []float64) ([]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	out := dst[:0]
	if out == nil {
		out = []float64{}
	}
	for first := true; !p.eat(']'); first = false {
		if !first && !p.eat(',') {
			return nil, false
		}
		v, ok := p.num()
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}

// str consumes a string of printable ASCII with no escapes and returns its
// contents, a view of the body. Anything else (escapes, control or non-ASCII
// bytes, which encoding/json validates and may rewrite) is refused.
func (p *bodyScan) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// num consumes a JSON number and converts it as encoding/json does; a
// number ParseFloat refuses (out of float64 range) is refused.
func (p *bodyScan) num() (float64, bool) {
	p.skipSpace()
	start := p.i
	p.skip('-')
	if !p.skip('0') && p.digits() == 0 {
		return 0, false
	}
	if p.skip('.') && p.digits() == 0 {
		return 0, false
	}
	if p.skip('e') || p.skip('E') {
		if !p.skip('+') {
			p.skip('-')
		}
		if p.digits() == 0 {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return v, err == nil
}

// skip consumes c if it is the very next byte.
func (p *bodyScan) skip(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports its length.
func (p *bodyScan) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// base64 consumes a []byte field's value: null, or a string decoded into a
// fresh slice exactly as encoding/json decodes it.
func (p *bodyScan) base64() ([]byte, bool) {
	if p.lit("null") {
		return nil, true
	}
	s, ok := p.str()
	if !ok {
		return nil, false
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(out, s)
	return out[:n], err == nil
}
