package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		perMille int
		want     float64
	}{{500, 5}, {900, 9}, {990, 10}, {1000, 10}, {1, 1}, {0, 1}} {
		if got := percentile(s, c.perMille); got != c.want {
			t.Errorf("percentile(1..10, %d‰) = %v, want %v", c.perMille, got, c.want)
		}
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTailSampleRule(t *testing.T) {
	// p99 of 1000 samples is the 990th; ten lie beyond it.
	if got := beyond(1000, 990); got != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", got)
	}
	if got := beyond(999, 990); got != 9 {
		t.Errorf("beyond(999, p99) = %d, want 9", got)
	}
	if got := minSamplesFor(990); got != 1000 {
		t.Errorf("minSamplesFor(p99) = %d, want 1000", got)
	}
	if got := minSamplesFor(500); got != 20 {
		t.Errorf("minSamplesFor(p50) = %d, want 20", got)
	}
	var l latencies
	for i := 1; i <= 1000; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	p50, p99, ok := l.quantiles()
	if p50 != 500 || p99 != 990 || !ok {
		t.Errorf("quantiles of 1..1000 ms = %v, %v, %v; want 500, 990, true", p50, p99, ok)
	}
	l = l[:999]
	if _, _, ok := l.quantiles(); ok {
		t.Error("999 samples must fail the p99 tail-sample rule")
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}
