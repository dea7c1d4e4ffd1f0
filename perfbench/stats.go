package main

import (
	"sort"
	"time"
)

// minTailSamples is the tail-sample rule: a percentile is reported only
// when at least this many samples lie beyond it.
const minTailSamples = 10

// percentile returns the nearest-rank q-quantile of sorted, with q given
// in per-mille (500 = median, 990 = p99): the smallest sample with at
// least q/1000 of the samples at or below it. It returns 0 for no
// samples.
func percentile(sorted []float64, perMille int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := (perMille*n + 999) / 1000 // ceil(q·n), 1-based
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond is the number of samples strictly above the nearest-rank
// q-quantile's position.
func beyond(n, perMille int) int {
	return n - (perMille*n+999)/1000
}

// minSamplesFor is the smallest sample count at which the q-quantile has
// minTailSamples samples beyond it.
func minSamplesFor(perMille int) int {
	n := 1
	for beyond(n, perMille) < minTailSamples {
		n++
	}
	return n
}

// median of an unsorted slice (copied, not reordered).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 500)
}

// latencies collects per-op durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// quantiles returns p50 and p99 of the samples and whether p99 meets the
// tail-sample rule.
func (l latencies) quantiles() (p50, p99 float64, tailOK bool) {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return percentile(s, 500), percentile(s, 990), beyond(len(s), 990) >= minTailSamples
}

// windowed summarizes a run's per-op latencies (ms) and simulated cycles
// as medians over consecutive windows of minSamplesFor(p99) ops; a
// trailing remainder joins the last window. Interference from outside
// the process comes in bursts that move one window, not the median.
type windowed struct {
	windows                       int
	p50, p99, opsPerS, cyclesPerS float64
	tailOK                        bool // every window's p99 has enough samples beyond it
}

func summarizeWindows(lat []float64, cycles []float64) windowed {
	size := minSamplesFor(990)
	n := len(lat)
	if n == 0 {
		return windowed{}
	}
	w := windowed{windows: max(n/size, 1), tailOK: n >= size}
	var p50s, p99s, ops, cps []float64
	for k := 0; k < w.windows; k++ {
		lo, hi := k*size, (k+1)*size
		if k == w.windows-1 {
			hi = n
		}
		s := append([]float64(nil), lat[lo:hi]...)
		busy, cyc := 0.0, 0.0
		for i := lo; i < hi; i++ {
			busy += lat[i] / 1e3
			cyc += cycles[i]
		}
		sort.Float64s(s)
		p50s = append(p50s, percentile(s, 500))
		p99s = append(p99s, percentile(s, 990))
		ops = append(ops, float64(hi-lo)/busy)
		cps = append(cps, cyc/busy)
	}
	w.p50, w.p99, w.opsPerS, w.cyclesPerS = median(p50s), median(p99s), median(ops), median(cps)
	return w
}
