package main

import (
	"testing"
	"time"
)

func TestGeneratorsAreAFunctionOfTheSeed(t *testing.T) {
	tables := func(seed int64) (uint64, uint64) {
		data, err := dataRequests(seed, 1, 600*time.Second, serveModel, modelFeatures)
		if err != nil {
			t.Fatal(err)
		}
		return requestsChecksum(snapshotRequests(seed, 0)), requestsChecksum(data)
	}
	type fingerprint struct{ corpus, queries, snapshot, data uint64 }
	of := func(seed int64) fingerprint {
		snap, data := tables(seed)
		return fingerprint{
			corpus:   corpusChecksum(seed, querySpacing, 100_000),
			queries:  queryListChecksum(seed, 100_000, querySpacing, 2000),
			snapshot: snap,
			data:     data,
		}
	}
	a, again, b := of(7), of(7), of(8)
	if a != again {
		t.Errorf("seed 7 gave %+v then %+v", a, again)
	}
	if a.corpus == b.corpus || a.queries == b.queries || a.snapshot == b.snapshot || a.data == b.data {
		t.Errorf("seeds 7 and 8 share a stream: %+v vs %+v", a, b)
	}
	// The two connections of one run must not replay each other.
	if requestsChecksum(snapshotRequests(7, 0)) == requestsChecksum(snapshotRequests(7, 1)) {
		t.Error("connections 0 and 1 got the same request table")
	}
}

func TestCorpusBatchingDoesNotChangeTheRecords(t *testing.T) {
	whole := corpusChecksum(3, ingestSpacing, 10_000)
	c := newCorpus(3, ingestSpacing)
	var n int
	for n < 10_000 {
		n += len(c.fill(777))
	}
	if c.next != n || n < 10_000 {
		t.Fatalf("corpus handed out %d records, cursor at %d", n, c.next)
	}
	if again := corpusChecksum(3, ingestSpacing, 10_000); again != whole {
		t.Errorf("corpus checksum %x then %x", whole, again)
	}
	recs := newCorpus(3, ingestSpacing).fill(2)
	if recs[0].At != 0 || recs[1].At != ingestSpacing || len(recs[1].Payload) == 0 {
		t.Errorf("first records are %+v", recs)
	}
}

func TestQueriesStayInsideTheCorpus(t *testing.T) {
	const n = 1_000_000 // the full-scale corpus: every window fits inside its span
	g := newQueryGen(11, n, querySpacing)
	span := time.Duration(n) * querySpacing
	shapes := make(map[int]int)
	recent := 0
	for i := 0; i < 4000; i++ {
		q := g.next()
		shapes[q.Shape]++
		if q.Kind == kindGet {
			if q.ID < 1 || q.ID > n {
				t.Fatalf("point get for ID %d outside 1..%d", q.ID, n)
			}
			continue
		}
		if q.Q.From < 0 || q.Q.To > span || q.Q.To < q.Q.From {
			t.Fatalf("query %+v outside the corpus span %v", q.Q, span)
		}
		if q.Q.From >= span-span/10-30*time.Minute {
			recent++
		}
	}
	if len(shapes) != len(queryShapes) {
		t.Errorf("drew %d of %d shapes", len(shapes), len(queryShapes))
	}
	if recent == 0 {
		t.Error("no window favours the recent end of the span")
	}
}
