package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

// fuzzReader decodes a fuzz input a byte at a time; past the end it reads
// zeros, so every input is a complete program.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

// at decodes a virtual time, negative ones included.
func (r *fuzzReader) at() time.Duration { return time.Duration(int8(r.byte())) * time.Millisecond }

var (
	fuzzKeys    = []string{"k", "bytes", "site", "span", "parent", ""}
	fuzzStrings = []string{"", "alpr", "xedge-1", `q"uote`, "ünï"}
	fuzzFloats  = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.005, -2.675, 1e21, 1024.5}
	fuzzNames   = []string{"offload", "network", "xedge", "ddi"}
)

// attrs decodes zero to three attributes, each built twice: for the slab
// tracer and, from the same value, for the reference.
func (r *fuzzReader) attrs() ([]Attr, []naiveAttr) {
	var got []Attr
	var want []naiveAttr
	for n := r.byte() % 4; n > 0; n-- {
		c := r.byte()
		key := fuzzKeys[int(c>>3)%len(fuzzKeys)]
		switch c % 8 {
		case 0:
			v := fuzzStrings[int(r.byte())%len(fuzzStrings)]
			got, want = append(got, String(key, v)), append(want, naiveString(key, v))
		case 1:
			v := int(int8(r.byte()))
			got, want = append(got, Int(key, v)), append(want, naiveInt(key, v))
		case 2:
			v := int(r.u64())
			got, want = append(got, Int(key, v)), append(want, naiveInt(key, v))
		case 3:
			v := fuzzFloats[int(r.byte())%len(fuzzFloats)]
			got, want = append(got, F64(key, v)), append(want, naiveF64(key, v))
		case 4:
			v := math.Float64frombits(r.u64())
			got, want = append(got, F64(key, v)), append(want, naiveF64(key, v))
		case 5:
			v := time.Duration(r.u64())
			got, want = append(got, Dur(key, v)), append(want, naiveDur(key, v))
		case 6:
			v := r.at() * time.Duration(r.byte())
			got, want = append(got, Dur(key, v)), append(want, naiveDur(key, v))
		default:
			v := r.byte()%2 == 1
			got, want = append(got, Bool(key, v)), append(want, naiveBool(key, v))
		}
	}
	return got, want
}

// twin is a slab tracer and the reference driven with the same calls, and
// the handles each call returned.
type twin struct {
	tr    *Tracer
	ref   *naiveTracer
	spans []*Span
	refs  []*naiveSpan
}

func newTwin(limit int) *twin {
	w := &twin{tr: New(), ref: newNaive()}
	w.tr.SetSpanLimit(limit)
	w.ref.SetSpanLimit(limit)
	return w
}

// handle picks an earlier span (nil on both sides when none, or dropped).
func (w *twin) handle(r *fuzzReader) (*Span, *naiveSpan) {
	if len(w.spans) == 0 {
		return nil, nil
	}
	i := int(r.byte()) % len(w.spans)
	return w.spans[i], w.refs[i]
}

func (w *twin) record(t *testing.T, s *Span, ref *naiveSpan) {
	t.Helper()
	if (s == nil) != (ref == nil) || s.ID() != ref.ID() {
		t.Fatalf("span %d: recorded %v (ID %d), reference %v (ID %d)", len(w.spans), s != nil, s.ID(), ref != nil, ref.ID())
	}
	w.spans, w.refs = append(w.spans, s), append(w.refs, ref)
}

// check requires the two tracers to agree on everything a caller can read.
func (w *twin) check(t *testing.T) {
	t.Helper()
	if got, want := w.tr.RenderTree(), w.ref.RenderTree(); got != want {
		t.Fatalf("RenderTree differs:\n%s\n--- reference:\n%s", got, want)
	}
	got, err := w.tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.ref.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ChromeTrace differs:\n%s\n--- reference:\n%s", got, want)
	}
	if g, r := w.tr.SpanCount(), w.ref.SpanCount(); g != r {
		t.Fatalf("SpanCount = %d, reference %d", g, r)
	}
	if g, r := w.tr.Dropped(), w.ref.Dropped(); g != r {
		t.Fatalf("Dropped = %d, reference %d", g, r)
	}
	if g, r := w.tr.Components(), w.ref.Components(); !reflect.DeepEqual(g, r) {
		t.Fatalf("Components = %q, reference %q", g, r)
	}
	var gotRoots, wantRoots []int
	for _, s := range w.tr.Roots() {
		gotRoots = append(gotRoots, s.ID())
	}
	for _, s := range w.ref.Roots() {
		wantRoots = append(wantRoots, s.ID())
	}
	if !reflect.DeepEqual(gotRoots, wantRoots) {
		t.Fatalf("root IDs = %v, reference %v", gotRoots, wantRoots)
	}
}

// FuzzTracerMatchesReference runs a byte-coded program of StartSpanAt,
// SpanAt, FinishAt (on any earlier span, so out of order and twice),
// SetAttr (on open and finished spans) and Merge (between two tracer pairs,
// into itself and from nil) against the slab tracer and the pointer-tree
// reference, at caps from 1 to 64, with every attribute kind — negative
// numbers, NaN and ±Inf floats included. Every returned span ID, and at
// every checkpoint and at the end the tree render, the Chrome export bytes,
// SpanCount, Dropped, Components and the root IDs, must be identical.
func FuzzTracerMatchesReference(f *testing.F) {
	f.Add([]byte{})
	// Nested starts, a leaf, an out-of-order finish, a late SetAttr, a
	// checkpoint.
	f.Add([]byte{40, 8, 0, 0, 0, 1, 0, 1, 0, 1, 0, 5, 2, 1, 2, 1, 250, 2, 0, 10, 3, 0, 2, 7, 1, 9, 253, 5})
	// A span finished before it started: End clamps to Start.
	f.Add([]byte{10, 10, 0, 0, 5, 0, 2, 0, 0xfb, 5})
	// Every attribute kind, including NaN, +Inf and a negative duration.
	f.Add([]byte{63, 63, 1, 2, 0, 10, 3, 0, 1, 1, 255, 3, 3, 0, 3, 1,
		1, 3, 0, 12, 3, 4, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x9c, 6, 200, 3, 5})
	// A pair filled on both sides, merged both ways, into itself and from
	// nil, past a cap of 3.
	f.Add([]byte{2, 20, 0, 0, 0, 0, 129, 1, 0, 0, 0, 129, 2, 0, 0, 0, 1, 0, 1, 0, 0,
		4, 0, 4, 1, 4, 2, 4, 3, 5, 133})
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &fuzzReader{b: prog}
		pairs := [2]*twin{newTwin(1 + int(r.byte())%64), newTwin(1 + int(r.byte())%64)}
		for steps := 0; len(r.b) > 0 && steps < 256; steps++ {
			op := r.byte()
			w := pairs[op>>7]
			switch op % 8 {
			case 0, 6:
				comp := fuzzNames[int(r.byte())%len(fuzzNames)]
				start := r.at()
				got, want := r.attrs()
				w.record(t, w.tr.StartSpanAt(comp, comp+".op", start, got...), w.ref.StartSpanAt(comp, comp+".op", start, want...))
			case 1, 7:
				comp := fuzzNames[int(r.byte())%len(fuzzNames)]
				start, end := r.at(), r.at()
				got, want := r.attrs()
				w.record(t, w.tr.SpanAt(comp, comp+".leaf", start, end, got...), w.ref.SpanAt(comp, comp+".leaf", start, end, want...))
			case 2:
				s, ref := w.handle(r)
				end := r.at()
				s.FinishAt(end)
				ref.FinishAt(end)
			case 3:
				s, ref := w.handle(r)
				got, want := r.attrs()
				s.SetAttr(got...)
				ref.SetAttr(want...)
			case 4:
				switch r.byte() % 4 {
				case 0:
					pairs[0].tr.Merge(pairs[1].tr)
					pairs[0].ref.Merge(pairs[1].ref)
				case 1:
					pairs[1].tr.Merge(pairs[0].tr)
					pairs[1].ref.Merge(pairs[0].ref)
				case 2:
					w.tr.Merge(w.tr)
					w.ref.Merge(w.ref)
				default:
					w.tr.Merge(nil)
					w.ref.Merge(nil)
				}
			case 5:
				w.check(t)
			}
		}
		pairs[0].check(t)
		pairs[1].check(t)
	})
}

// TestTracerMatchesReferenceAtDefaultCap drives a long nested program past
// several slabs and arena chunks at the default cap, then merges it into a
// tracer that caps mid-merge, against the reference.
func TestTracerMatchesReferenceAtDefaultCap(t *testing.T) {
	src, dst := newTwin(DefaultSpanLimit), newTwin(3*slabSize+7)
	for i := 0; i < 4*slabSize; i++ {
		at := time.Duration(i) * time.Microsecond
		s, ref := src.tr.StartSpanAt("c", "op", at, Int("i", i)), src.ref.StartSpanAt("c", "op", at, naiveInt("i", i))
		src.record(t, s, ref)
		src.record(t, src.tr.SpanAt("l", "leaf", at, at+1, F64("f", float64(i)/3), Dur("d", at)),
			src.ref.SpanAt("l", "leaf", at, at+1, naiveF64("f", float64(i)/3), naiveDur("d", at)))
		if i%3 != 0 {
			s.FinishAt(at + 2)
			ref.FinishAt(at + 2)
		}
		if i%5 == 0 {
			s.SetAttr(Bool("late", true), String("s", "x"))
			ref.SetAttr(naiveBool("late", true), naiveString("s", "x"))
		}
	}
	src.check(t)
	dst.tr.Merge(src.tr)
	dst.ref.Merge(src.ref)
	dst.check(t)
}
