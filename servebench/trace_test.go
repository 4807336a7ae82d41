package main

import (
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", parent: noParent, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},  // covered 20
		{name: "b", parent: 0, start: 25, end: 50},  // overlaps a: union 10..50
		{name: "c", parent: 0, start: 90, end: 120}, // clipped to 90..100
		{name: "a1", parent: 1, start: 12, end: 18}, // grandchild: only a's self shrinks
		{name: "leaf", parent: noParent, start: 5, end: 9},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 25, 30, 6, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestSelfTimesNestedAndDisjoint(t *testing.T) {
	spans := []span{
		{name: "root", parent: noParent, start: 0, end: 10},
		{name: "x", parent: 0, start: 1, end: 2},
		{name: "y", parent: 0, start: 2, end: 4}, // touches x: union 1..4
		{name: "z", parent: 0, start: 6, end: 7},
		{name: "w", parent: 0, start: 3, end: 3}, // empty
	}
	if got := selfTimes(spans)[0]; got != 10-3-1 {
		t.Errorf("root self = %d, want 6", got)
	}
}

func TestAggregateAndTracer(t *testing.T) {
	tr := newTracer(8)
	root := tr.begin("req", noParent, 7)
	child := tr.begin("solve", root, 7)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].parent != root || tr.spans[1].req != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	agg := aggregate(tr.spans)
	if agg["req"].calls != 1 || agg["solve"].calls != 1 {
		t.Fatalf("aggregate = %+v", agg)
	}
	total := tr.spans[0].end - tr.spans[0].start
	if agg["req"].selfNS+agg["solve"].selfNS != total {
		t.Errorf("self times %d + %d do not add up to the root's %d",
			agg["req"].selfNS, agg["solve"].selfNS, total)
	}

	var nilTracer *tracer
	if id := nilTracer.begin("x", noParent, 0); id != noParent {
		t.Errorf("nil tracer begin = %d, want noParent", id)
	}
	nilTracer.end(0)

	var b strings.Builder
	if err := writeSpans(&b, tr.spans); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != 3 {
		t.Errorf("writeSpans wrote %d lines, want header + 2", lines)
	}
}

func TestLayerTotalsMeanSelf(t *testing.T) {
	lt := layerTotals{calls: 4, selfNS: 8000}
	if got := lt.meanSelf(1000); got != 2 {
		t.Errorf("meanSelf = %v, want 2", got)
	}
	if got := (layerTotals{}).meanSelf(1000); got != 0 {
		t.Errorf("meanSelf of an unused layer = %v, want 0", got)
	}
}
