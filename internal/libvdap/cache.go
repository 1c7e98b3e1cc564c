package libvdap

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// errBusy is returned by a cache get when the rebuild backlog exceeds the
// configured bound; handlers translate it into 503 + Retry-After.
var errBusy = errors.New("libvdap: snapshot rebuild backlog full")

// DefaultMaxPendingBuilds bounds how many requests may queue behind one
// in-flight snapshot build before further misses are shed with 503. The
// bound tracks simulation lag: the only way the backlog grows is the
// watermark advancing faster than payloads can be marshaled.
const DefaultMaxPendingBuilds = 64

// gzipEncoder is one reusable compressor with the buffer it writes into. A
// fresh gzip.Writer costs ~800 KB of flate state, so every compression in
// the package draws one from gzipPool and Resets it.
type gzipEncoder struct {
	zw  *gzip.Writer
	buf bytes.Buffer
}

var gzipPool = sync.Pool{New: func() any {
	return &gzipEncoder{zw: gzip.NewWriter(io.Discard)}
}}

// encode compresses body into the encoder's buffer and returns it; the
// bytes are valid until the encoder goes back to the pool.
func (g *gzipEncoder) encode(body []byte) []byte {
	g.buf.Reset()
	g.zw.Reset(&g.buf)
	g.zw.Write(body) // a bytes.Buffer never fails a write
	g.zw.Close()
	return g.buf.Bytes()
}

// cacheEntry is one immutable published payload in its two representations.
// Readers get the pointer atomically and never see partial bytes: the
// identity body is fully built before the pointer is swapped in, and the
// gzip form is built behind gzOnce by the first reader that asks for it, so
// a watermark nobody reads compressed is never compressed.
type cacheEntry struct {
	watermark time.Duration
	body      []byte

	gzOnce sync.Once
	gz     []byte
}

// wmCache memoizes one endpoint's encoded response, keyed on the
// virtual-time watermark. The body is marshaled at most once and
// compressed at most once per watermark advance — concurrent misses
// single-flight behind a mutex and every waiter reuses the first builder's
// bytes — so a thousand concurrent clients cost one marshal and one gzip
// per tick, not one per request.
type wmCache struct {
	val        atomic.Pointer[cacheEntry]
	mu         sync.Mutex // serializes rebuilds
	pending    atomic.Int32
	maxPending int32

	hits       atomic.Int64
	misses     atomic.Int64
	shed       atomic.Int64
	gzipBuilds atomic.Int64
}

func newWMCache(maxPending int32) *wmCache {
	if maxPending <= 0 {
		maxPending = DefaultMaxPendingBuilds
	}
	return &wmCache{maxPending: maxPending}
}

// get returns the cached entry for watermark now, rebuilding via build on
// the first miss at each watermark, and reports whether the lookup was a
// hit. Returns errBusy without calling build when more than maxPending
// requests are already queued on the builder.
func (c *wmCache) get(now time.Duration, build func() ([]byte, error)) (e *cacheEntry, hit bool, err error) {
	if e := c.val.Load(); e != nil && e.watermark == now {
		c.hits.Add(1)
		return e, true, nil
	}
	if c.pending.Add(1) > c.maxPending {
		c.pending.Add(-1)
		c.shed.Add(1)
		return nil, false, errBusy
	}
	defer c.pending.Add(-1)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Another waiter may have published this watermark while we queued.
	if e := c.val.Load(); e != nil && e.watermark == now {
		c.hits.Add(1)
		return e, true, nil
	}
	c.misses.Add(1)
	body, err := build()
	if err != nil {
		return nil, false, err
	}
	e = &cacheEntry{watermark: now, body: body}
	c.val.Store(e)
	return e, false, nil
}

// gzipped returns e's gzip representation, compressing it on the first call
// per entry (built reports that this call did) and handing every later
// caller the same bytes.
func (c *wmCache) gzipped(e *cacheEntry) (gz []byte, built bool) {
	e.gzOnce.Do(func() {
		enc := gzipPool.Get().(*gzipEncoder)
		e.gz = bytes.Clone(enc.encode(e.body))
		gzipPool.Put(enc)
		c.gzipBuilds.Add(1)
		built = true
	})
	return e.gz, built
}

// CacheStat is one endpoint cache's counters, exported for the serve
// benchmark and /api/v1/status. A healthy cache reads hits ≫ misses ≥ gzip
// builds: one marshal per watermark, at most one compression per marshal.
type CacheStat struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Shed       int64 `json:"shed"`
	GzipBuilds int64 `json:"gzipBuilds"`
}

func (c *wmCache) stat() CacheStat {
	return CacheStat{Hits: c.hits.Load(), Misses: c.misses.Load(), Shed: c.shed.Load(), GzipBuilds: c.gzipBuilds.Load()}
}
