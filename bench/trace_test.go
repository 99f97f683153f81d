package main

import (
	"math"
	"testing"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "rep", Start: 0, End: 100, Parent: -1},
		{Name: "epoch", Start: 10, End: 60, Parent: 0},   // nested, with its own child
		{Name: "kernel", Start: 20, End: 50, Parent: 1},  // grandchild: not subtracted from rep twice
		{Name: "handler", Start: 50, End: 80, Parent: 0}, // overlaps epoch by 10
		{Name: "handler", Start: 55, End: 70, Parent: 0}, // inside the other handler
		{Name: "late", Start: 95, End: 120, Parent: 0},   // runs past its parent: clipped
	}
	self := selfTimes(spans)
	// rep: 100 - union([10,60] [50,80] [55,70] [95,100]) = 100 - (70 + 5) = 25
	want := []int64{25, 20, 30, 30, 15, 25}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], w)
		}
	}
	byName := selfByName(spans)
	if got := math.Round(byName["handler"] * 1e9); got != 45 {
		t.Errorf("handler self time = %g ns, want 45", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", -1, 0))
	if got := tr.snapshot(); got != nil {
		t.Errorf("nil tracer returned spans: %v", got)
	}
	live := newTracer("w")
	id := live.begin("a", -1, 3)
	live.end(live.begin("b", id, 3))
	live.end(id)
	got := live.snapshot()
	if len(got) != 2 || got[1].Parent != 0 || got[0].Workload != "w" || got[1].Rep != 3 || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}
