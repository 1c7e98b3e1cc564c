package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/ddi"
	"repro/internal/sim"
)

const msec = time.Millisecond

// inMS and inUS are d in (fractional) milliseconds and microseconds.
func inMS(d time.Duration) float64 { return float64(d) / float64(msec) }
func inUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Generator stream numbers under sim.NewStream(seed, k). The program under
// test never sees the seed, only what these streams produce.
const (
	streamFleet   = 0 // fleet.Config.RNG: speed jitter and the fault plan
	streamCorpus  = 20
	streamQueries = 21
	streamHTTP    = 100 // + connection index
)

// corpusSources are the five collector sources of the E20-shaped corpus.
var corpusSources = []ddi.Source{
	ddi.SourceOBD, ddi.SourceGPS, ddi.SourceWeather, ddi.SourceTraffic, ddi.SourceUser,
}

// payloadCap bounds one corpus payload: `{"v":9999,"s":99}` is 17 bytes.
const payloadCap = 24

// maxSlab is the largest batch a corpus will hold live. Keeping a multi-
// million-record corpus in the generator's heap makes the garbage collector
// mark it on every cycle and cuts DiskStore.Put by an order of magnitude, so
// records are generated per batch into one reused slab.
const maxSlab = 1 << 16

// corpus streams seeded DDI records in order: record i is captured at
// i*spacing, and the store assigns it ID i+1.
type corpus struct {
	rng     *sim.RNG
	spacing time.Duration
	next    int
	recs    []ddi.Record
	slab    []byte
}

func newCorpus(seed int64, spacing time.Duration) *corpus {
	return &corpus{
		rng:     sim.NewStream(seed, streamCorpus),
		spacing: spacing,
		recs:    make([]ddi.Record, 0, maxSlab),
		slab:    make([]byte, maxSlab*payloadCap),
	}
}

// fill generates the next n (<= maxSlab) records into the reused slab. The
// returned slice and its payloads are valid until the next fill.
func (c *corpus) fill(n int) []ddi.Record {
	if n > maxSlab {
		n = maxSlab
	}
	c.recs = c.recs[:0]
	for j := 0; j < n; j++ {
		buf := c.slab[j*payloadCap : j*payloadCap : (j+1)*payloadCap]
		c.recs = append(c.recs, ddi.Record{
			Source:  corpusSources[c.rng.Intn(len(corpusSources))],
			At:      time.Duration(c.next) * c.spacing,
			X:       c.rng.Uniform(-1000, 1000),
			Y:       c.rng.Uniform(-1000, 1000),
			Payload: fmt.Appendf(buf, `{"v":%d,"s":%d}`, c.rng.Intn(10000), c.rng.Intn(100)),
		})
		c.next++
	}
	return c.recs
}

// hashRecord folds one record into h, field by field.
func hashRecord(h hash.Hash64, r *ddi.Record) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(r.ID)
	put(uint64(r.At))
	put(math.Float64bits(r.X))
	put(math.Float64bits(r.Y))
	h.Write([]byte(r.Source))
	h.Write(r.Payload)
}

// corpusChecksum digests the first n records of a seed's corpus.
func corpusChecksum(seed int64, spacing time.Duration, n int) uint64 {
	c := newCorpus(seed, spacing)
	h := fnv.New64a()
	for done := 0; done < n; {
		recs := c.fill(n - done)
		for i := range recs {
			recs[i].ID = uint64(done + i + 1)
			hashRecord(h, &recs[i])
		}
		done += len(recs)
	}
	return h.Sum64()
}

// queryKind says which DiskStore entry point a generated query uses.
type queryKind int

const (
	kindScan queryKind = iota
	kindAggregate
	kindGet
	kindSelect
)

// genQuery is one generated read: a shape index into queryShapes, the entry
// point, and its arguments.
type genQuery struct {
	Shape int
	Kind  queryKind
	Q     ddi.Query
	Col   ddi.Column
	ID    uint64
}

// queryGen draws the ddi_query workload's reads for a corpus of n records
// spaced spacing apart. 80% of the windows start in the newest 10% of the
// span (recent keys are favoured, as a vehicle's own apps do), 20% anywhere.
type queryGen struct {
	rng  *sim.RNG
	n    int
	span time.Duration
}

func newQueryGen(seed int64, n int, spacing time.Duration) *queryGen {
	return &queryGen{rng: sim.NewStream(seed, streamQueries), n: n, span: time.Duration(n) * spacing}
}

// start draws a window start that leaves room for width before the span ends.
func (g *queryGen) start(width time.Duration) time.Duration {
	room := g.span - width
	if room <= 0 {
		return 0
	}
	var at time.Duration
	if g.rng.Float64() < 0.8 {
		at = g.span - g.span/10 + time.Duration(g.rng.Float64()*float64(g.span/10))
	} else {
		at = time.Duration(g.rng.Float64() * float64(g.span))
	}
	if at > room {
		at = room
	}
	return at
}

func (g *queryGen) next() genQuery {
	shape := g.rng.Intn(len(queryShapes))
	q := genQuery{Shape: shape}
	window := func(width time.Duration) {
		q.Q.From = g.start(width)
		q.Q.To = q.Q.From + width
	}
	switch queryShapes[shape] {
	case "narrow_src":
		window(30 * time.Second)
		q.Q.Source = corpusSources[g.rng.Intn(len(corpusSources))]
	case "narrow_all":
		window(30 * time.Second)
	case "geo_box":
		window(5 * time.Minute)
		q.Q.X, q.Q.Y = g.rng.Uniform(-800, 800), g.rng.Uniform(-800, 800)
		q.Q.Radius = 150
	case "wide_limit":
		window(30 * time.Minute)
		q.Q.Limit = 100
	case "agg_covered":
		// Aligned to whole partitions, so every touched segment is fully
		// covered and answers from its footer.
		q.Kind, q.Col = kindAggregate, ddi.ColX
		parts := int(g.span / ddi.DefaultPartition)
		if parts < 1 {
			parts = 1
		}
		width := 1 + g.rng.Intn(3)
		if width > parts {
			width = parts
		}
		first := g.rng.Intn(parts - width + 1)
		q.Q.From = time.Duration(first) * ddi.DefaultPartition
		q.Q.To = time.Duration(first+width)*ddi.DefaultPartition - time.Nanosecond
	case "agg_partial":
		q.Kind, q.Col = kindAggregate, ddi.ColY
		window(7 * time.Minute)
	case "point_get":
		q.Kind = kindGet
		if g.rng.Float64() < 0.8 {
			q.ID = uint64(g.n - g.n/10 + g.rng.Intn(g.n/10+1))
		} else {
			q.ID = uint64(1 + g.rng.Intn(g.n))
		}
		if q.ID < 1 {
			q.ID = 1
		}
		if q.ID > uint64(g.n) {
			q.ID = uint64(g.n)
		}
	case "select":
		q.Kind = kindSelect
		window(10 * time.Second)
	}
	return q
}

// queryListChecksum digests the first n generated queries of a seed.
func queryListChecksum(seed int64, records int, spacing time.Duration, n int) uint64 {
	g := newQueryGen(seed, records, spacing)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		q := g.next()
		fmt.Fprintf(h, "%d|%d|%s|%d|%d|%v|%v|%v|%d|%d|%d\n", q.Shape, q.Kind, q.Q.Source,
			q.Q.From, q.Q.To, q.Q.X, q.Q.Y, q.Q.Radius, q.Q.Limit, q.Col, q.ID)
	}
	return h.Sum64()
}

// httpReq is one pre-built libvdap request: everything the connection loop
// needs to issue it without formatting or marshalling inside a timed window.
type httpReq struct {
	Route  int // index into the workload's route list
	Method string
	Path   string // path and query string
	Body   []byte
}

// requestTable is the bounded, reused set of requests one connection cycles
// through.
const requestTable = 4096

// snapshotRequests builds connection conn's request table for serve_snapshot:
// a uniform seeded draw over the four watermark-cached routes.
func snapshotRequests(seed int64, conn int) []httpReq {
	rng := sim.NewStream(seed, streamHTTP+uint64(conn))
	paths := []string{"/api/v1/status", "/api/v1/metrics", "/api/v1/metrics/series", "/api/v1/events"}
	out := make([]httpReq, requestTable)
	for i := range out {
		r := rng.Intn(len(paths))
		out[i] = httpReq{Route: r, Method: "GET", Path: paths[r]}
	}
	return out
}

// dataRequests builds connection conn's table for serve_data: a uniform seeded
// draw over the six routes that bypass the response cache. span is
// the virtual time the preloaded records cover; queries and windows fall
// inside it.
func dataRequests(seed int64, conn int, span time.Duration, model string, features int) ([]httpReq, error) {
	rng := sim.NewStream(seed, streamHTTP+uint64(conn))
	sources := []ddi.Source{ddi.SourceUser, ddi.SourceOBD, ddi.SourceGPS}
	out := make([]httpReq, requestTable)
	for i := range out {
		r := rng.Intn(len(dataRoutes))
		req := httpReq{Route: r, Method: "GET"}
		from := rng.Float64() * (span.Seconds() - 4)
		switch dataRoutes[r] {
		case "upload":
			body, err := json.Marshal(struct {
				Source  string  `json:"source"`
				X       float64 `json:"x"`
				Y       float64 `json:"y"`
				Payload []byte  `json:"payload"`
			}{string(ddi.SourceUser), rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000),
				uploadPayload(conn, i)})
			if err != nil {
				return nil, err
			}
			req.Method, req.Path, req.Body = "POST", "/api/v1/data/upload", body
		case "query":
			req.Path = fmt.Sprintf("/api/v1/data/query?source=%s&from=%.3f&to=%.3f&limit=100",
				sources[rng.Intn(len(sources))], from, from+2)
		case "window":
			req.Path = fmt.Sprintf("/api/v1/data/window?source=%s&from=%.3f&to=%.3f&column=x",
				sources[rng.Intn(len(sources))], from, from+4)
		case "resources":
			req.Path = "/api/v1/resources"
		case "predict":
			fs := make([]float64, features)
			for j := range fs {
				fs[j] = rng.Uniform(-1, 1)
			}
			body, err := json.Marshal(map[string][]float64{"features": fs})
			if err != nil {
				return nil, err
			}
			req.Method, req.Path, req.Body = "POST", "/api/v1/models/"+model+"/predict", body
		case "invoke":
			req.Method, req.Path = "POST", "/api/v1/services/kidnapper-search/invoke"
		}
		out[i] = req
	}
	return out, nil
}

// uploadPayload is the payload of connection conn's table entry i, so a read-
// back can recompute what an upload must have stored.
func uploadPayload(conn, i int) []byte {
	return fmt.Appendf(nil, `{"c":%d,"i":%d}`, conn, i)
}

// requestsChecksum digests a request table.
func requestsChecksum(reqs []httpReq) uint64 {
	h := fnv.New64a()
	for _, r := range reqs {
		fmt.Fprintf(h, "%d|%s|%s|%s\n", r.Route, r.Method, r.Path, r.Body)
	}
	return h.Sum64()
}
