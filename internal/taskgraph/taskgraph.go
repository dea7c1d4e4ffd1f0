// Package taskgraph models USM-style design specifications: concurrent
// tasks, logical memory segments, logical channels, and control
// dependencies (paper Section 2). Taskgraphs are the input to the SPARCS
// flow in internal/core.
package taskgraph

import (
	"fmt"
	"sort"
	"sync"
)

// AccessKind distinguishes reads from writes for conflict analysis.
type AccessKind uint8

const (
	// Read accesses load from a segment.
	Read AccessKind = iota
	// Write accesses store to a segment.
	Write
)

func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Access is one task-to-segment relationship.
type Access struct {
	Segment string
	Kind    AccessKind
}

// Task is a synthesizable element of computation.
type Task struct {
	Name string
	// Deps lists tasks that must complete before this task may start
	// (control dependencies, the dashed arrows of the paper's Figure 10).
	Deps []string
	// Accesses lists the memory segments the task touches.
	Accesses []Access
	// AreaCLBs is the estimated logic area of the task's datapath and
	// controller, used by the partitioners.
	AreaCLBs int
}

// Reads returns the segment names the task reads.
func (t *Task) Reads() []string { return t.segmentsOf(Read) }

// Writes returns the segment names the task writes.
func (t *Task) Writes() []string { return t.segmentsOf(Write) }

func (t *Task) segmentsOf(k AccessKind) []string {
	var out []string
	for _, a := range t.Accesses {
		if a.Kind == k {
			out = append(out, a.Segment)
		}
	}
	return out
}

// Segments returns all segment names the task accesses, deduplicated.
func (t *Task) Segments() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range t.Accesses {
		if !seen[a.Segment] {
			seen[a.Segment] = true
			out = append(out, a.Segment)
		}
	}
	return out
}

// Segment is a logical element of data storage.
type Segment struct {
	Name      string
	SizeBytes int
	// WidthBits is the data word width (memory data bus width needed).
	WidthBits int
	// Cohort, when non-empty, names a group of segments that must share
	// one physical bank (e.g. a block the host DMA streams as a unit).
	Cohort string
}

// Channel is a logical point-to-point connection between two tasks.
type Channel struct {
	Name      string
	From, To  string
	WidthBits int
}

// Graph is a complete design specification. A Graph must not be
// mutated once it has been queried: the first query builds its lookup
// index (name maps and dependency reachability) once, and every later
// query reads it.
type Graph struct {
	Name     string
	Tasks    []*Task
	Segments []*Segment
	Channels []*Channel

	idxOnce sync.Once
	idx     graphIndex
}

// graphIndex is the graph's lookup structure, built once on first query.
// Reachability is one ancestor bitset row per dense id (the bitset layout
// of the arbiter kernel, extended to multi-word rows): bit j of row i is
// set when j transitively precedes i. Ids cover every task name and every
// dependency name, known or not, so pairwise queries answer exactly as a
// walk over the Deps lists would.
type graphIndex struct {
	tasks map[string]*Task
	segs  map[string]*Segment
	ids   map[string]int
	words int      // uint64 words per ancestor row
	anc   []uint64 // len(ids) rows of words
}

// index returns the graph's index, building it on first use. Safe for
// concurrent use once the graph is no longer being mutated, which the
// parallel sweep runners rely on.
func (g *Graph) index() *graphIndex {
	g.idxOnce.Do(g.buildIndex)
	return &g.idx
}

// TaskByName returns the named task, or nil.
func (g *Graph) TaskByName(name string) *Task { return g.index().tasks[name] }

// SegmentByName returns the named segment, or nil.
func (g *Graph) SegmentByName(name string) *Segment { return g.index().segs[name] }

func (g *Graph) buildIndex() {
	ix := &g.idx
	ix.tasks = make(map[string]*Task, len(g.Tasks))
	ix.segs = make(map[string]*Segment, len(g.Segments))
	ix.ids = make(map[string]int, len(g.Tasks))
	for _, t := range g.Tasks {
		ix.tasks[t.Name] = t
		ix.id(t.Name)
	}
	for _, s := range g.Segments {
		ix.segs[s.Name] = s
	}
	// Dependency names with no task of their own become leaf ids.
	for _, t := range g.Tasks {
		for _, d := range t.Deps {
			ix.id(d)
		}
	}
	deps := make([][]int, len(ix.ids))
	for _, t := range g.Tasks {
		if ix.tasks[t.Name] != t {
			continue // a duplicated name keeps its last declaration, as in the name map
		}
		ds := make([]int, len(t.Deps))
		for k, d := range t.Deps {
			ds[k] = ix.ids[d]
		}
		deps[ix.ids[t.Name]] = ds
	}
	ix.closeOver(deps)
}

// id returns name's dense id, assigning the next one on first sight.
func (ix *graphIndex) id(name string) int {
	if i, ok := ix.ids[name]; ok {
		return i
	}
	i := len(ix.ids)
	ix.ids[name] = i
	return i
}

// closeOver fills the ancestor rows with the transitive closure of deps.
// Rows are filled in dependency post-order, so on a DAG one pass is
// exact; a dependency cycle repeats the pass until no row changes.
func (ix *graphIndex) closeOver(deps [][]int) {
	n := len(deps)
	ix.words = (n + 63) / 64
	ix.anc = make([]uint64, n*ix.words)
	order := make([]int, 0, n)
	state := make([]uint8, n) // 0 unvisited, 1 on the DFS stack, 2 done
	cyclic := false
	var visit func(i int)
	visit = func(i int) {
		state[i] = 1
		for _, d := range deps[i] {
			switch state[d] {
			case 0:
				visit(d)
			case 1:
				cyclic = true
			}
		}
		state[i] = 2
		order = append(order, i)
	}
	for i := range deps {
		if state[i] == 0 {
			visit(i)
		}
	}
	for {
		changed := false
		for _, i := range order {
			row := ix.row(i)
			for _, d := range deps[i] {
				before := row[d/64]
				row[d/64] |= 1 << uint(d%64)
				changed = changed || row[d/64] != before
				for k, w := range ix.row(d) {
					if row[k]|w != row[k] {
						row[k] |= w
						changed = true
					}
				}
			}
		}
		if !cyclic || !changed {
			return
		}
	}
}

func (ix *graphIndex) row(i int) []uint64 { return ix.anc[i*ix.words : (i+1)*ix.words] }

// lookup resolves a name to its dense id, or -1 when no task or
// dependency carries it.
func (ix *graphIndex) lookup(name string) int {
	if i, ok := ix.ids[name]; ok {
		return i
	}
	return -1
}

// reaches reports whether id from transitively precedes id to. A task
// never precedes itself, even on a dependency cycle, and an unknown name
// (-1) precedes nothing.
func (ix *graphIndex) reaches(from, to int) bool {
	return from >= 0 && to >= 0 && from != to && ix.anc[to*ix.words+from/64]>>uint(from%64)&1 != 0
}

// Validate checks referential integrity and dependency acyclicity.
func (g *Graph) Validate() error {
	ix := g.index()
	if len(ix.tasks) != len(g.Tasks) {
		return fmt.Errorf("taskgraph %s: duplicate task names", g.Name)
	}
	if len(ix.segs) != len(g.Segments) {
		return fmt.Errorf("taskgraph %s: duplicate segment names", g.Name)
	}
	for _, t := range g.Tasks {
		for _, d := range t.Deps {
			if ix.tasks[d] == nil {
				return fmt.Errorf("taskgraph %s: task %s depends on unknown task %s", g.Name, t.Name, d)
			}
		}
		for _, a := range t.Accesses {
			if ix.segs[a.Segment] == nil {
				return fmt.Errorf("taskgraph %s: task %s accesses unknown segment %s", g.Name, t.Name, a.Segment)
			}
		}
		if t.AreaCLBs <= 0 {
			return fmt.Errorf("taskgraph %s: task %s has non-positive area", g.Name, t.Name)
		}
	}
	for _, c := range g.Channels {
		if ix.tasks[c.From] == nil || ix.tasks[c.To] == nil {
			return fmt.Errorf("taskgraph %s: channel %s connects unknown tasks %s->%s", g.Name, c.Name, c.From, c.To)
		}
		if c.From == c.To {
			return fmt.Errorf("taskgraph %s: channel %s is a self-loop", g.Name, c.Name)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns task names in a dependency-respecting order, or an
// error if control dependencies form a cycle. Ties preserve declaration
// order for determinism.
func (g *Graph) TopoOrder() ([]string, error) {
	ix := g.index()
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]uint8{}
	var order []string
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("taskgraph %s: control dependency cycle through %s", g.Name, name)
		}
		color[name] = gray
		t := ix.tasks[name]
		deps := append([]string(nil), t.Deps...)
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		color[name] = black
		order = append(order, name)
		return nil
	}
	for _, t := range g.Tasks {
		if err := visit(t.Name); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Ordered reports whether task a transitively precedes task b through
// control dependencies, or b precedes a. Ordered tasks can never contend
// for a resource — the basis of the paper's Section 5 arbiter-elision
// observation.
func (g *Graph) Ordered(a, b string) bool {
	ix := g.index()
	from, to := ix.lookup(a), ix.lookup(b)
	return ix.reaches(from, to) || ix.reaches(to, from)
}

// Precedes reports whether a transitively precedes b (a completes before b
// starts).
func (g *Graph) Precedes(a, b string) bool {
	ix := g.index()
	return ix.reaches(ix.lookup(a), ix.lookup(b))
}

// Accessors returns the names of tasks accessing the segment, in
// declaration order.
func (g *Graph) Accessors(segment string) []string {
	var out []string
	for _, t := range g.Tasks {
		for _, a := range t.Accesses {
			if a.Segment == segment {
				out = append(out, t.Name)
				break
			}
		}
	}
	return out
}

// UnorderedMembers returns the subset of the given tasks that have at
// least one other task in the set they are not ordered against by control
// dependencies. These are exactly the tasks that can contend at run time
// and therefore need request/grant lines on a shared resource; tasks
// ordered against every other accessor are elidable (paper Section 5).
// The result preserves the input order.
func (g *Graph) UnorderedMembers(tasks []string) []string {
	ix := g.index()
	ids := make([]int, len(tasks))
	for i, name := range tasks {
		ids[i] = ix.lookup(name)
	}
	var out []string
	for i, a := range ids {
		for j, b := range ids {
			if i == j {
				continue
			}
			if !ix.reaches(a, b) && !ix.reaches(b, a) {
				out = append(out, tasks[i])
				break
			}
		}
	}
	return out
}

// TotalArea sums task area estimates.
func (g *Graph) TotalArea() int {
	sum := 0
	for _, t := range g.Tasks {
		sum += t.AreaCLBs
	}
	return sum
}

// TotalSegmentBytes sums segment sizes.
func (g *Graph) TotalSegmentBytes() int {
	sum := 0
	for _, s := range g.Segments {
		sum += s.SizeBytes
	}
	return sum
}
