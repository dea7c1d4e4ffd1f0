package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the recorder's origin; Parent is
// the index of the enclosing span (-1 for a root) and Op groups the
// spans of one benchmark operation.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. It is safe for the
// load generator's concurrent clients.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its index for end and for children.
// A nil recorder records nothing: begin returns -1 and end is a no-op,
// so the mirrors also run unrecorded for the equality checks and the
// heap probe.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// span times f as a child of parent and returns its duration.
func (r *recorder) span(name string, parent, op int, f func()) time.Duration {
	if r == nil {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	id := r.begin(name, parent, op)
	f()
	r.end(id)
	return r.dur(id)
}

func (r *recorder) dur(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// write saves the spans as JSON to path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once; child time outside the parent's interval is ignored).
func selfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes sums, per span name and op, the spans' inclusive and self
// times in milliseconds. The result maps name → op → time.
type layerTimes struct {
	incl, self map[string]map[int]float64
}

func aggregate(spans []Span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{incl: map[string]map[int]float64{}, self: map[string]map[int]float64{}}
	for i, s := range spans {
		if lt.incl[s.Name] == nil {
			lt.incl[s.Name] = map[int]float64{}
			lt.self[s.Name] = map[int]float64{}
		}
		lt.incl[s.Name][s.Op] += float64(s.End-s.Start) / 1e6
		lt.self[s.Name][s.Op] += float64(self[i]) / 1e6
	}
	return lt
}

// perOp returns the per-op values of name (ms) in op order.
func perOp(m map[string]map[int]float64, name string) []float64 {
	ops := make([]int, 0, len(m[name]))
	for op := range m[name] {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = m[name][op]
	}
	return out
}

// total returns the sum over ops of name (ms).
func total(m map[string]map[int]float64, name string) float64 {
	t := 0.0
	for _, v := range m[name] {
		t += v
	}
	return t
}
