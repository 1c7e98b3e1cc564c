package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},  // overlaps a by 10
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // sticks out of root by 20
		{Name: "a.leaf", Start: ms(15), End: ms(25), Parent: 1},
		{Name: "a.leaf", Start: ms(20), End: ms(35), Parent: 1}, // overlaps its sibling
	}
	got := selfTimes(spans)
	// root: children cover [10,60] and [90,100] = 60 of its 100.
	if lt := got["root"]; lt.Busy != ms(100) || lt.Self != ms(40) {
		t.Errorf("root busy=%v self=%v, want 100ms and 40ms", lt.Busy, lt.Self)
	}
	// a: leaves cover [15,35] = 20 of its 30; the grandchildren are not
	// subtracted from root a second time.
	if lt := got["a"]; lt.Busy != ms(30) || lt.Self != ms(10) {
		t.Errorf("a busy=%v self=%v, want 30ms and 10ms", lt.Busy, lt.Self)
	}
	if lt := got["a.leaf"]; lt.Count != 2 || lt.Busy != ms(25) || lt.Self != ms(25) {
		t.Errorf("a.leaf = %+v, want 2 spans, 25ms busy, 25ms self", lt)
	}
	if lt := got["b"]; lt.Self != ms(30) {
		t.Errorf("b self=%v, want 30ms", lt.Self)
	}
}

func TestLaneStackAssignsParents(t *testing.T) {
	r := newRecorder()
	ln := r.lane()
	root := ln.begin("root", 1)
	kid := ln.begin("kid", 1)
	leaf := ln.begin("leaf", 1)
	ln.end(leaf)
	ln.end(kid)
	sib := ln.begin("sib", 2)
	ln.end(sib)
	ln.end(root)
	want := []int32{-1, 0, 1, 0}
	for i, p := range want {
		if ln.spans[i].Parent != p {
			t.Errorf("span %d (%s) has parent %d, want %d", i, ln.spans[i].Name, ln.spans[i].Parent, p)
		}
		if ln.spans[i].End < ln.spans[i].Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	// Self times of a properly nested lane add up to the root's duration.
	var self time.Duration
	for _, lt := range r.layers() {
		self += lt.Self
	}
	if rootDur := ln.spans[0].End - ln.spans[0].Start; self != rootDur {
		t.Errorf("self times sum to %v, root lasted %v", self, rootDur)
	}
}

func TestNilLaneRecordsNothing(t *testing.T) {
	var r *recorder
	ln := r.lane()
	id := ln.begin("x", 0)
	ln.end(id)
	ln.add("y", time.Now(), time.Now(), 0)
	if ln != nil || len(r.layers()) != 0 {
		t.Fatal("a nil recorder must hand out nil lanes that record nothing")
	}
}
