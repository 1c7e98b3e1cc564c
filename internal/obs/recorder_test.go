package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/trace"
)

// recorderKinds is the pool a recorder program draws event kinds from.
var recorderKinds = [...]*EventKind{
	{"offload", SevWarn, "breaker.open"},
	{"faults", SevInfo, "outage.end"},
	{"fleet", SevDebug, "commit.begin"},
	{"libvdap", SevError, "handler panic"},
	{"offload", SevInfo, "resilient.fallback"},
}

var recorderComponents = [...]string{"", "offload", "faults", "fleet", "libvdap", "nobody"}

// programFields returns up to four attributes of every kind, drawn from b.
func programFields(n int, b byte) []trace.Attr {
	all := []trace.Attr{
		trace.String("site", recorderComponents[b%6]),
		trace.Int("attempts", int(b)),
		trace.Dur("length", time.Duration(b)*time.Millisecond),
		trace.Bool("degraded", b%2 == 0),
		trace.F64("factor", float64(b)/7),
	}
	return all[int(b)%2 : int(b)%2+n%5]
}

// runRecorderProgram runs prog on three recorders and their naive twins,
// four bytes an op after three capacity bytes (1 to 9 events, so rings
// wrap): op%4 0 or 1 emits into recorder a%3 at b%8 ms, 2 merges recorder
// b%3 into a%3 (itself too), 3 compares a filtered export and everything
// else a recorder exports. Every op compares the touched pair's events, and
// the end compares everything for all three.
func runRecorderProgram(t *testing.T, prog []byte) {
	caps := [3]int{1, 1, 1}
	if len(prog) >= 3 {
		for i := range caps {
			caps[i] = 1 + int(prog[i])%9
		}
		prog = prog[3:]
	}
	var real [3]*Recorder
	var ref [3]*naiveRecorder
	for i, c := range caps {
		real[i], ref[i] = NewRecorder(c), &naiveRecorder{capacity: c}
	}
	for ; len(prog) >= 4; prog = prog[4:] {
		op, a, b, c := prog[0], prog[1], prog[2], prog[3]
		i := int(a) % 3
		switch op % 4 {
		case 0, 1:
			at := time.Duration(b%8) * time.Millisecond
			kind := recorderKinds[int(c)%len(recorderKinds)]
			fields := programFields(int(c/8), b)
			real[i].Emit(at, kind, fields...)
			ref[i].emit(at, kind, fields)
		case 2:
			j := int(b) % 3
			real[i].Merge(real[j])
			ref[i].merge(ref[j])
		case 3:
			since := time.Duration(int(b%10)-1) * time.Millisecond
			comp := recorderComponents[int(c)%len(recorderComponents)]
			minSev := Severity(int(c/8)%5 - 1)
			what := fmt.Sprintf("EventsSince(%v, %q, %v)", since, comp, minSev)
			sameEvents(t, what, real[i].EventsSince(since, comp, minSev), ref[i].eventsSince(since, comp, minSev))
			sameRecorder(t, real[i], ref[i])
		}
		sameEvents(t, "Events", real[i].Events(), ref[i].sorted())
	}
	for i := range real {
		sameRecorder(t, real[i], ref[i])
	}
}

// sameRecorder requires r to export what ref does: events, an unfiltered
// EventsSince, the dropped count, the table bytes and the JSON bytes.
func sameRecorder(t *testing.T, r *Recorder, ref *naiveRecorder) {
	t.Helper()
	want := ref.sorted()
	sameEvents(t, "Events", r.Events(), want)
	sameEvents(t, "EventsSince(-1)", r.EventsSince(-1, "", SevDebug), ref.eventsSince(-1, "", SevDebug))
	if r.Len() != len(want) || r.Dropped() != ref.dropped {
		t.Fatalf("Len %d Dropped %d, reference %d and %d", r.Len(), r.Dropped(), len(want), ref.dropped)
	}
	if got, want := r.RenderTable(), ref.renderTable(); got != want {
		t.Fatalf("RenderTable:\n%s\nreference:\n%s", got, want)
	}
	got, err := json.Marshal(r.Events())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("JSON:\n%s\nreference:\n%s", got, wantJSON)
	}
}

func sameEvents(t *testing.T, what string, got, want []Event) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: %d events (nil %v), reference %d (nil %v)", what, len(got), got == nil, len(want), want == nil)
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.At != w.At || g.Component != w.Component || g.Severity != w.Severity || g.Name != w.Name || len(g.Fields) != len(w.Fields) {
			t.Fatalf("%s: event %d is %v %s %v %s (%d fields), reference %v %s %v %s (%d fields)", what, k,
				g.At, g.Component, g.Severity, g.Name, len(g.Fields), w.At, w.Component, w.Severity, w.Name, len(w.Fields))
		}
		for f := range g.Fields {
			if g.Fields[f].Key != w.Fields[f].Key || g.Fields[f].Value() != w.Fields[f].Value() {
				t.Fatalf("%s: event %d field %d is %s=%s, reference %s=%s", what, k, f,
					g.Fields[f].Key, g.Fields[f].Value(), w.Fields[f].Key, w.Fields[f].Value())
			}
		}
	}
}

// FuzzRecorderMatchesReference holds the slot-ring Recorder to the plain
// []Event recorder over arbitrary Emit/Merge/export programs (see
// runRecorderProgram for the op encoding), seeded with programs that wrap
// every ring and merge lanes into each other.
func FuzzRecorderMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 3, 8, 0, 0, 3, 9, 3, 0, 0, 0})
	f.Add([]byte{8, 8, 8, 0, 0, 1, 4, 1, 1, 1, 33, 2, 0, 1, 0, 2, 0, 2, 0, 3, 0, 2, 200})
	for seed := int64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		prog := make([]byte, 3+4*(20+rng.Intn(200)))
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		runRecorderProgram(t, prog)
	})
}

// TestRecorderSlotSize: a retained event costs at most 40 bytes of ring,
// half an Event.
func TestRecorderSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 40 {
		t.Fatalf("a ring slot is %d bytes, want at most 40", n)
	}
}

// TestRecorderMergeAllocs: merging a full 512-event lane into a recorder
// sized for it copies slots and nothing else (AllocsPerRun merges 11 times).
func TestRecorderMergeAllocs(t *testing.T) {
	src := NewRecorder(512)
	for i := 0; i < 600; i++ {
		src.Emit(time.Duration(i), kindOutageBegin, trace.String("site", "rsu-3"), trace.Int("attempt", i))
	}
	dst := NewRecorder(11 * 512)
	if n := testing.AllocsPerRun(10, func() { dst.Merge(src) }); n != 0 {
		t.Fatalf("Merge of a full 512-event lane allocated %v objects, want 0", n)
	}
	if dst.Len() != 11*512 || dst.Dropped() != 11*88 {
		t.Fatalf("after 11 merges Len %d Dropped %d", dst.Len(), dst.Dropped())
	}
}
