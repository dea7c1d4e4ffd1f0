package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "a", Start: 10, End: 30, Parent: 0, Op: 1},
		{Name: "b", Start: 20, End: 50, Parent: 0, Op: 1},  // overlaps a: 10..50 covered once
		{Name: "c", Start: 60, End: 70, Parent: 0, Op: 1},  // disjoint
		{Name: "d", Start: 90, End: 120, Parent: 0, Op: 1}, // clipped to the parent: 90..100
		{Name: "e", Start: 22, End: 25, Parent: 2, Op: 1},  // grandchild: counts against b only
		{Name: "op", Start: 200, End: 210, Parent: -1, Op: 2},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10 - 10, 20, 30 - 3, 10, 30, 3, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	lt := aggregate(spans)
	if got := perOp(lt.self, "op"); !reflect.DeepEqual(got, []float64{40e-6, 10e-6}) {
		t.Errorf("per-op self of op = %v", got)
	}
	if got := perOp(lt.incl, "op"); !reflect.DeepEqual(got, []float64{100e-6, 10e-6}) {
		t.Errorf("per-op inclusive of op = %v", got)
	}
	if got := total(lt.incl, "b"); got != 30e-6 {
		t.Errorf("total inclusive of b = %v", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	root := r.begin("op", -1, 7)
	r.span("child", root, 7, func() {})
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[1].Op != 7 {
		t.Fatalf("spans = %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if r.spans[1].Start < r.spans[0].Start || r.spans[1].End > r.spans[0].End {
		t.Error("child span lies outside its parent")
	}
	if err := r.write(filepath.Join(t.TempDir(), "spans", "x.json")); err != nil {
		t.Fatal(err)
	}
	// A nil recorder times without recording.
	var nilRec *recorder
	if id := nilRec.begin("x", -1, 0); id != -1 {
		t.Errorf("nil recorder begin = %d, want -1", id)
	}
	ran := false
	nilRec.span("x", -1, 0, func() { ran = true })
	nilRec.end(-1)
	if !ran {
		t.Error("nil recorder did not run the span body")
	}
}
