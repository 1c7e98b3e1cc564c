package trace

import (
	"encoding/json"
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

func TestSpanTreeStructure(t *testing.T) {
	tr := buildSample()

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Name != "edgeos.invoke" || root.Parent != nil {
		t.Fatalf("bad root: %+v", root)
	}
	if len(root.Children) != 1 {
		t.Fatalf("root children = %d, want 1", len(root.Children))
	}
	exec := root.Children[0]
	if exec.Name != "offload.execute" || exec.Parent != root {
		t.Fatalf("bad child: %+v", exec)
	}
	if len(exec.Children) != 2 {
		t.Fatalf("execute children = %d, want 2", len(exec.Children))
	}
	up, xe := exec.Children[0], exec.Children[1]
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
	if leaf.Parent != nil {
		t.Fatalf("later span should be a root after stack unwound, got parent %v", leaf.Parent.Name)
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
	if roots[1].Attrs[0].Value != "a" || roots[2].Attrs[0].Value != "b" {
		t.Fatal("merge did not preserve index order")
	}
	if roots[1].Children[0].Name != "decide" {
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
