package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// request [0,100] holds prepare [5,15] and next [20,60]; next holds a
	// probe [30,40]. A second request [200,230] has no children.
	spans := []span{
		{name: "request", start: 0, end: 100, parent: -1, req: 0},
		{name: "prepare", start: 5, end: 15, parent: 0, req: 0},
		{name: "next", start: 20, end: 60, parent: 0, req: 0},
		{name: "probe", start: 30, end: 40, parent: 2, req: 0},
		{name: "request", start: 200, end: 230, parent: -1, req: 1},
	}
	got := selfTimes(spans, 0)
	want := []float64{100 - 10 - 40, 10, 40 - 10, 10, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %g, want %g", i, spans[i].name, got[i], want[i])
		}
	}

	// With a clock cost c, every span loses c of its own and one more c
	// per child.
	const c = 2
	got = selfTimes(spans, c)
	want = []float64{100 - c - (10 + c) - (40 + c), 10 - c, 40 - c - (10 + c), 10 - c, 30 - c}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("clock-corrected self[%d] (%s) = %g, want %g", i, spans[i].name, got[i], want[i])
		}
	}

	// Self times of a tree partition the roots' corrected durations: the
	// clock reads are the only time not attributed to some span.
	var sum float64
	for _, s := range got {
		sum += s
	}
	roots := float64(100+30) - 2*c
	reads := float64(3) * 2 * c // three non-root spans, two reads each
	if math.Abs(sum-(roots-reads)) > 1e-9 {
		t.Errorf("sum of self times %g, want %g", sum, roots-reads)
	}

	means := meanSelfByName(spans, selfTimes(spans, 0))
	if means["request"] != (50+30)/2.0 || means["next"] != 30 {
		t.Errorf("mean self by name = %v", means)
	}
}

func TestSpanRecorderNests(t *testing.T) {
	r := newSpanRecorder(8)
	root := r.begin("request", -1, 7)
	child := r.begin("next", root, 7)
	r.end(child)
	r.end(root)
	if len(r.spans) != 2 || r.spans[child].parent != root || r.spans[child].req != 7 {
		t.Fatalf("spans = %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.end < s.start {
			t.Fatalf("span %s ends before it starts", s.name)
		}
	}
	if r.spans[child].start < r.spans[root].start || r.spans[child].end > r.spans[root].end {
		t.Fatal("child span lies outside its parent")
	}
	for _, s := range selfTimes(r.spans, 0) {
		if s < 0 {
			t.Fatalf("negative self time %g without clock correction", s)
		}
	}
}
