package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestQueueOrdersByTime(t *testing.T) {
	var q queue
	var got []int
	q.push(3*time.Second, func() { got = append(got, 3) })
	q.push(1*time.Second, func() { got = append(got, 1) })
	q.push(2*time.Second, func() { got = append(got, 2) })

	for len(q.events) > 0 {
		q.pop().fn()
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestQueueFIFOAtSameInstant(t *testing.T) {
	var q queue
	var got []int
	for i := 0; i < 10; i++ {
		q.push(time.Second, func() { got = append(got, i) })
	}
	for len(q.events) > 0 {
		q.pop().fn()
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestQueuePeekTime(t *testing.T) {
	var q queue
	if _, ok := q.peek(); ok {
		t.Fatal("peek ok on empty queue")
	}
	q.push(5*time.Second, func() {})
	q.push(2*time.Second, func() {})
	at, ok := q.peek()
	if !ok || at != 2*time.Second {
		t.Fatalf("peek = %v, %v; want 2s, true", at, ok)
	}
}

// TestFiredEventReleasesCallback: pop zeroes the slot a fired event
// vacates, so a long-lived engine never pins a dead closure or anything
// it captures.
func TestFiredEventReleasesCallback(t *testing.T) {
	e := NewEngine(1)
	ran := false
	collected := scheduleWithPayload(e, &ran)
	if err := e.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event did not fire")
	}
	for _, ev := range e.queue.events[:cap(e.queue.events)] {
		if ev.fn != nil {
			t.Fatal("a vacated heap slot still holds its callback")
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(e)
			return
		case <-deadline:
			t.Fatal("fired event's payload was never collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// scheduleWithPayload schedules an event at 1s whose closure alone holds a
// 1 MiB payload. The returned channel closes once the payload is garbage.
func scheduleWithPayload(e *Engine, ran *bool) <-chan struct{} {
	collected := make(chan struct{})
	payload := make([]byte, 1<<20)
	runtime.SetFinalizer(&payload[0], func(*byte) { close(collected) })
	e.After(time.Second, func() { *ran = payload[0] == 0 })
	return collected
}

// --- differential reference: a container/heap implementation ---

type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// TestQueueDifferentialAgainstContainerHeap drives the 4-ary heap and a
// container/heap reference through 10k random push/pop interleavings and
// requires the exact same pop order — the property that keeps every seeded
// experiment byte-identical across kernel rewrites.
func TestQueueDifferentialAgainstContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	var q queue
	var ref refHeap
	var refSeq uint64
	var gotOrder, wantOrder []int

	popBoth := func() {
		q.pop().fn()
		wantOrder = append(wantOrder, heap.Pop(&ref).(refEvent).id)
	}
	for op, id := 0, 0; op < 10_000; op++ {
		if rng.Intn(10) < 6 || len(q.events) == 0 {
			// Coarse buckets force plenty of same-instant ties.
			at := time.Duration(rng.Intn(50)) * time.Millisecond
			myID := id
			id++
			q.push(at, func() { gotOrder = append(gotOrder, myID) })
			refSeq++
			heap.Push(&ref, refEvent{at: at, seq: refSeq, id: myID})
		} else {
			popBoth()
		}
		if len(q.events) != ref.Len() {
			t.Fatalf("op %d: queue holds %d events, reference %d", op, len(q.events), ref.Len())
		}
	}
	for len(q.events) > 0 {
		popBoth()
	}

	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("popped %d events, reference popped %d", len(gotOrder), len(wantOrder))
	}
	for i := range gotOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("pop order diverged at %d: got id %d, reference id %d",
				i, gotOrder[i], wantOrder[i])
		}
	}
}

func TestClockMonotonic(t *testing.T) {
	var c Clock
	c.Set(5 * time.Second)
	c.Set(3 * time.Second) // earlier: ignored
	if c.Now() != 5*time.Second {
		t.Fatalf("Now = %v after backward Set, want 5s", c.Now())
	}
	c.Set(8 * time.Second)
	if c.Now() != 8*time.Second {
		t.Fatalf("Now = %v, want 8s", c.Now())
	}
}
