package trace

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func buildSample() *Tracer {
	tr := New()
	root := tr.StartSpanAt("edgeos", "edgeos.invoke", 0, String("service", "alpr"))
	child := tr.StartSpanAt("offload", "offload.execute", 10*time.Millisecond)
	tr.SpanAt("network", "network.uplink", 10*time.Millisecond, 14*time.Millisecond, F64("bytes", 2048))
	tr.SpanAt("xedge", "xedge.exec", 14*time.Millisecond, 30*time.Millisecond)
	child.FinishAt(30 * time.Millisecond)
	root.FinishAt(30 * time.Millisecond)
	return tr
}

// children lists a span's children in creation order.
func children(s *Span) []*Span {
	var out []*Span
	for c := s.FirstChild(); c != nil; c = c.NextSibling() {
		out = append(out, c)
	}
	return out
}

func TestSpanTreeStructure(t *testing.T) {
	tr := buildSample()

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Name != "edgeos.invoke" || root.Parent() != nil {
		t.Fatalf("bad root: %+v", root)
	}
	if len(children(root)) != 1 {
		t.Fatalf("root children = %d, want 1", len(children(root)))
	}
	exec := children(root)[0]
	if exec.Name != "offload.execute" || exec.Parent() != root {
		t.Fatalf("bad child: %+v", exec)
	}
	if len(children(exec)) != 2 {
		t.Fatalf("execute children = %d, want 2", len(children(exec)))
	}
	up, xe := children(exec)[0], children(exec)[1]
	if up.Name != "network.uplink" || xe.Name != "xedge.exec" {
		t.Fatalf("leaf order: %s, %s", up.Name, xe.Name)
	}
	if up.End > xe.Start {
		t.Fatalf("uplink (ends %v) should not overlap exec (starts %v)", up.End, xe.Start)
	}
	if got := tr.SpanCount(); got != 4 {
		t.Fatalf("SpanCount = %d, want 4", got)
	}
	want := []string{"edgeos", "network", "offload", "xedge"}
	got := tr.Components()
	if len(got) != len(want) {
		t.Fatalf("Components = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Components = %v, want %v", got, want)
		}
	}
}

func TestRenderTreeDeterministic(t *testing.T) {
	a := buildSample().RenderTree()
	b := buildSample().RenderTree()
	if a != b {
		t.Fatalf("two identical builds rendered differently:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{
		"[edgeos] edgeos.invoke 0s..30ms (+30ms) service=alpr",
		"  [offload] offload.execute 10ms..30ms (+20ms)",
		"    [network] network.uplink 10ms..14ms (+4ms) bytes=2048.00",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("RenderTree missing %q in:\n%s", want, a)
		}
	}
}

func TestChromeTraceValidAndDeterministic(t *testing.T) {
	first, err := buildSample().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	second, err := buildSample().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("ChromeTrace not byte-identical across identical builds")
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(first, &file); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range file.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
		case "M":
			meta++
		}
	}
	if complete != 4 {
		t.Fatalf("complete events = %d, want 4", complete)
	}
	if meta < 5 { // process + 4 component lanes
		t.Fatalf("metadata events = %d, want >= 5", meta)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpanAt("x", "y", 0)
	s.SetAttr(String("k", "v"))
	s.FinishAt(0)
	tr.SpanAt("x", "y", 0, 0)
	if tr.RenderTree() != "" || tr.SpanCount() != 0 {
		t.Fatal("nil tracer should be inert")
	}
	if _, err := tr.ChromeTrace(); err == nil {
		t.Fatal("nil tracer ChromeTrace should error")
	}
}

func TestSpanLimitDrops(t *testing.T) {
	tr := New()
	tr.SetSpanLimit(3)
	for i := 0; i < 5; i++ {
		tr.SpanAt("c", "leaf", 0, 0)
	}
	if got := tr.SpanCount(); got != 3 {
		t.Fatalf("SpanCount = %d, want 3", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	if !strings.Contains(tr.RenderTree(), "2 spans dropped") {
		t.Fatal("RenderTree should report drops")
	}
}

func TestOutOfOrderFinishUnwindsStack(t *testing.T) {
	tr := New()
	a := tr.StartSpanAt("c", "a", 0)
	b := tr.StartSpanAt("c", "b", 0)
	a.FinishAt(time.Second) // finishes before b: b must not become a's sibling's child
	b.FinishAt(2 * time.Second)
	leaf := tr.SpanAt("c", "later", 0, 0)
	if leaf.Parent() != nil {
		t.Fatalf("later span should be a root after stack unwound, got parent %v", leaf.Parent().Name)
	}
}

func TestConcurrentUseIsSafe(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := tr.StartSpanAt("c", "op", 0)
				tr.SpanAt("c", "leaf", 0, time.Millisecond)
				s.FinishAt(time.Millisecond)
				if i%25 == 0 {
					_ = tr.RenderTree()
				}
			}
		}()
	}
	wg.Wait()
	if tr.SpanCount() == 0 {
		t.Fatal("no spans recorded")
	}
}

// TestTracerMerge: merging per-shard tracers in index order deep-copies
// their forests after the destination's roots, renumbering spans, without
// touching the sources.
func TestTracerMerge(t *testing.T) {
	shard := func(label string) *Tracer {
		tr := New()
		root := tr.StartSpanAt("fleet", "replication", 0, String("shard", label))
		tr.SpanAt("offload", "decide", 1, 2)
		root.FinishAt(3)
		return tr
	}
	dst := New()
	dst.SpanAt("runner", "setup", 0, 1)
	a, b := shard("a"), shard("b")
	dst.Merge(a)
	dst.Merge(b)

	if got := dst.SpanCount(); got != 5 {
		t.Fatalf("merged span count = %d, want 5", got)
	}
	roots := dst.Roots()
	if len(roots) != 3 {
		t.Fatalf("merged roots = %d, want 3", len(roots))
	}
	if roots[1].Attrs()[0].Value() != "a" || roots[2].Attrs()[0].Value() != "b" {
		t.Fatal("merge did not preserve index order")
	}
	if roots[1].FirstChild().Name != "decide" {
		t.Fatal("merge dropped child spans")
	}
	// IDs renumbered in walk order.
	if roots[1].ID() != 2 || roots[2].ID() != 4 {
		t.Fatalf("merged IDs = %d, %d, want 2, 4", roots[1].ID(), roots[2].ID())
	}
	// Sources untouched, self-merge a no-op.
	if a.SpanCount() != 2 {
		t.Fatal("merge mutated the source tracer")
	}
	dst.Merge(dst)
	if dst.SpanCount() != 5 {
		t.Fatal("self-merge duplicated spans")
	}

	// Deterministic render regardless of how many times the same shards
	// are rebuilt.
	again := New()
	again.SpanAt("runner", "setup", 0, 1)
	again.Merge(shard("a"))
	again.Merge(shard("b"))
	if dst.RenderTree() != again.RenderTree() {
		t.Fatal("merged render not deterministic")
	}
}

// TestTracerMergeRespectsCap: subtrees past the destination cap are
// dropped and counted.
func TestTracerMergeRespectsCap(t *testing.T) {
	src := New()
	for i := 0; i < 10; i++ {
		s := src.StartSpanAt("c", "op", 0)
		src.SpanAt("c", "leaf", 0, 1)
		s.FinishAt(1)
	}
	dst := New()
	dst.SetSpanLimit(7)
	dst.Merge(src)
	if got := dst.SpanCount(); got != 7 {
		t.Fatalf("span count = %d, want cap 7", got)
	}
	if got := dst.Dropped(); got != 13 {
		t.Fatalf("dropped = %d, want 13", got)
	}
}

// TestSpanRecordingAllocs pins recording at zero allocations: a recorded
// span carrying all five attribute kinds, averaged over four slabs (the
// slab and arena-chunk allocations amortise to nothing per span), a span
// dropped at the cap, and a call on a nil tracer.
func TestSpanRecordingAllocs(t *testing.T) {
	i := 0
	record := func(tr *Tracer) func() {
		return func() {
			at := time.Duration(i)
			s := tr.StartSpanAt("offload", "offload.estimate", at,
				String("dest", "xedge-1"), Int("split", i), F64("bytes", 1024.5),
				Dur("queue_wait", at), Bool("feasible", i%2 == 0))
			tr.SpanAt("network", "network.uplink", at, at+1, F64("loss", 0.25))
			s.SetAttr(Int("tasks", 3))
			s.FinishAt(at + 2)
			i++
		}
	}
	tr := New()
	if got := testing.AllocsPerRun(2*slabSize, record(tr)); got != 0 {
		t.Errorf("recorded span: %.0f allocs, want 0", got)
	}
	if n := tr.SpanCount(); n <= 3*slabSize {
		t.Fatalf("recorded %d spans, want them to fill more than three slabs", n)
	}
	full := New()
	full.SetSpanLimit(1)
	if got := testing.AllocsPerRun(100, record(full)); got != 0 {
		t.Errorf("span dropped at the cap: %.0f allocs, want 0", got)
	}
	if full.Dropped() == 0 {
		t.Fatal("no span was dropped")
	}
	if got := testing.AllocsPerRun(100, record(nil)); got != 0 {
		t.Errorf("nil tracer: %.0f allocs, want 0", got)
	}
}

// TestAttrJSONRoundTrip: every attribute kind encodes as {"k":…,"v":…} with
// the value rendered (HTML-escaped the way encoding/json escapes a string
// field), and decodes back to an attribute with the same key and Value.
func TestAttrJSONRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		attr Attr
		want string
	}{
		{Int("n", -42), `{"k":"n","v":"-42"}`},
		{F64("bytes", 2048.126), `{"k":"bytes","v":"2048.13"}`},
		{F64("loss", math.NaN()), `{"k":"loss","v":"NaN"}`},
		{Dur("total", 1500*time.Millisecond), `{"k":"total","v":"1.5s"}`},
		{Bool("ok", true), `{"k":"ok","v":"true"}`},
		{Bool("ok", false), `{"k":"ok","v":"false"}`},
		{String("dest", "rsu-0"), `{"k":"dest","v":"rsu-0"}`},
		{String("reason", ""), `{"k":"reason","v":""}`},
		{String("q", "a<b&c>\"\n"), `{"k":"q","v":"a\u003cb\u0026c\u003e\"\n"}`},
	} {
		b, err := json.Marshal(tc.attr)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.want {
			t.Fatalf("%s=%s encodes as %s, want %s", tc.attr.Key, tc.attr.Value(), b, tc.want)
		}
		var got Attr
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got.Key != tc.attr.Key || got.Value() != tc.attr.Value() {
			t.Fatalf("%s decodes to %s=%s, want %s=%s", b, got.Key, got.Value(), tc.attr.Key, tc.attr.Value())
		}
	}
	// Keys and values that take the escaping path write what json.Marshal
	// writes for the plain struct, inside a slice as well.
	for _, v := range []string{"plain", "a\x00b\x1fc\x7f", "\b\f\t\r", "q\"\\", "<&>", "µs",
		"\u2028\u2029", "bad\xffutf8\xc3", "日本"} {
		attrs := []Attr{String(v, v), String("k", v)}
		got, err := json.Marshal(attrs)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal([]attrJSON{{v, v}, {"k", v}})
		if string(got) != string(want) {
			t.Fatalf("%q encodes as %s, json.Marshal writes %s", v, got, want)
		}
	}
	var bad Attr
	if err := json.Unmarshal([]byte(`{"k":1}`), &bad); err == nil {
		t.Fatal("a non-string key decoded")
	}
}
