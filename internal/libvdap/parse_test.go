package libvdap

import (
	"math"
	"net/http"
	"net/url"
	"strconv"
	"testing"
)

// FuzzQueryGet: queryGet reads a raw query string exactly as
// url.ParseQuery(raw).Get(key) does, for the fuzzed key and for every key
// ParseQuery finds: the first value wins, pairs holding ';' or a bad escape
// are dropped, and %XX and '+' are unescaped in keys and values alike.
func FuzzQueryGet(f *testing.F) {
	for _, seed := range []struct{ raw, key string }{
		{"source=user&from=0&to=100&limit=2", "limit"},
		{"source=user;x=1&source=obd", "source"},
		{"from=%zz&from=1.5", "from"},
		{"from=1%", "from"},
		{"col%75mn=a+b%2Bc", "column"},
		{"", ""},
		{"=x&a=1", ""},
		{"to=1&to=2", "to"},
		{"&&limit=&limit=5", "limit"},
		{"a%3Db=c", "a=b"},
		{"k+1=v&k%201=w", "k 1"},
		{"source", "source"},
	} {
		f.Add(seed.raw, seed.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		want, _ := url.ParseQuery(raw)
		if got := queryGet(raw, key); got != want.Get(key) {
			t.Fatalf("queryGet(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want.Get(key))
		}
		for k, vs := range want {
			if got := queryGet(raw, k); got != vs[0] {
				t.Fatalf("queryGet(%q, %q) = %q, url.ParseQuery gives %q", raw, k, got, vs[0])
			}
		}
	})
}

// FuzzParseSeconds: whatever a client puts in ?since=, ?from=, ?to= or
// ?poll=, parseSeconds either refuses it or returns a non-negative duration
// within a nanosecond (scaled by the magnitude, for float rounding) of the
// number ParseFloat reads — never the math.MinInt64 that converting NaN, Inf
// or an overflowing product yields. parseSince differs only in reading the
// empty string as -1. The seed corpus is testdata/fuzz/FuzzParseSeconds.
func FuzzParseSeconds(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		d, err := parseSeconds(s)
		since, sinceErr := parseSince(s)
		if s == "" {
			if d != 0 || err != nil || since != -1 || sinceErr != nil {
				t.Fatalf("empty: parseSeconds = %v, %v; parseSince = %v, %v", d, err, since, sinceErr)
			}
			return
		}
		if since != d || (sinceErr == nil) != (err == nil) {
			t.Fatalf("parseSince(%q) = %v, %v; parseSeconds = %v, %v", s, since, sinceErr, d, err)
		}
		if err != nil {
			if d != 0 {
				t.Fatalf("parseSeconds(%q) = %v with error %v", s, d, err)
			}
			return
		}
		v, perr := strconv.ParseFloat(s, 64)
		if perr != nil {
			t.Fatalf("parseSeconds(%q) accepted what ParseFloat refuses: %v", s, perr)
		}
		if d < 0 {
			t.Fatalf("parseSeconds(%q) = %v (%d ns), negative with a nil error", s, d, int64(d))
		}
		if diff := math.Abs(d.Seconds() - v); !(diff <= 1e-9*(1+math.Abs(v))) {
			t.Fatalf("parseSeconds(%q) = %v, %g s away from %g", s, d, diff, v)
		}
	})
}

// TestHostileTimesRejected: the query-string times ParseFloat accepts but a
// duration cannot hold come back 400 on every route that reads one.
func TestHostileTimesRejected(t *testing.T) {
	data, _, _ := newTestServer(t)
	obs, _, _, _, _ := newObsServer(t)
	for _, url := range []string{
		obs.URL + "/api/v1/metrics/series?since=NaN",
		obs.URL + "/api/v1/events?since=Inf",
		obs.URL + "/api/v1/stream?since=9300000000",
		obs.URL + "/api/v1/stream?poll=NaN",
		data.URL + "/api/v1/data/window?from=1e300",
		data.URL + "/api/v1/data/window?to=-Inf",
		data.URL + "/api/v1/data/query?to=1e19",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}
