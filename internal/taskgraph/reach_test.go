package taskgraph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// walkRef is the reference reachability: for every name, the set of
// names a depth-first walk over the Deps lists meets on its way from it
// (a duplicated name resolves to its last declaration).
type walkRef map[string]map[string]bool

func newWalkRef(g *Graph, names []string) walkRef {
	byName := map[string]*Task{}
	for _, t := range g.Tasks {
		byName[t.Name] = t
	}
	ref := walkRef{}
	for _, to := range names {
		met := map[string]bool{}
		var walk func(cur string)
		walk = func(cur string) {
			t := byName[cur]
			if t == nil {
				return
			}
			for _, d := range t.Deps {
				if !met[d] {
					met[d] = true
					walk(d)
				}
			}
		}
		walk(to)
		ref[to] = met
	}
	return ref
}

// precedes reports whether from is met walking from to; a task never
// precedes itself.
func (r walkRef) precedes(from, to string) bool { return from != to && r[to][from] }

// randomGraph builds n tasks in shuffled declaration order. Each task
// depends on earlier-numbered tasks with probability p; with cyclic set,
// some tasks also depend on later-numbered ones. A few deps name tasks
// that do not exist.
func randomGraph(rng *rand.Rand, n int, p float64, cyclic bool) *Graph {
	g := &Graph{Name: fmt.Sprintf("rand%d", n)}
	for i := 0; i < n; i++ {
		t := &Task{Name: fmt.Sprintf("T%d", i), AreaCLBs: 1}
		for j := 0; j < n; j++ {
			if (j < i || cyclic && j > i && rng.Float64() < 0.05) && rng.Float64() < p {
				t.Deps = append(t.Deps, fmt.Sprintf("T%d", j))
			}
		}
		if rng.Float64() < 0.05 {
			t.Deps = append(t.Deps, fmt.Sprintf("ghost%d", rng.Intn(3)))
		}
		g.Tasks = append(g.Tasks, t)
	}
	rng.Shuffle(len(g.Tasks), func(i, j int) { g.Tasks[i], g.Tasks[j] = g.Tasks[j], g.Tasks[i] })
	return g
}

// queryNames is every task name plus dependency-only and unknown names.
func queryNames(g *Graph) []string {
	var names []string
	for _, t := range g.Tasks {
		names = append(names, t.Name)
	}
	return append(names, "ghost0", "ghost1", "ghost2", "nobody", "")
}

func checkAgainstWalk(t *testing.T, g *Graph) {
	t.Helper()
	names := queryNames(g)
	ref := newWalkRef(g, names)
	for _, a := range names {
		for _, b := range names {
			want := ref.precedes(a, b)
			if got := g.Precedes(a, b); got != want {
				t.Fatalf("%s: Precedes(%q, %q) = %v, want %v", g.Name, a, b, got, want)
			}
			wantOrd := want || ref.precedes(b, a)
			if got := g.Ordered(a, b); got != wantOrd {
				t.Fatalf("%s: Ordered(%q, %q) = %v, want %v", g.Name, a, b, got, wantOrd)
			}
		}
	}
	var want []string
	for i, a := range names {
		for j, b := range names {
			if i != j && !ref.precedes(a, b) && !ref.precedes(b, a) {
				want = append(want, a)
				break
			}
		}
	}
	if got := g.UnorderedMembers(names); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: UnorderedMembers = %v, want %v", g.Name, got, want)
	}
}

// TestReachabilityMatchesWalk checks the precomputed ancestor rows against
// the reference walk on seeded random graphs of 1..130 tasks, crossing
// the 64-task word boundary, with and without dependency cycles.
func TestReachabilityMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sizes := []int{1, 2, 3, 5, 8, 13, 31, 63, 64, 65, 100, 127, 128, 129, 130}
	for _, n := range sizes {
		for _, p := range []float64{0.02, 0.1, 0.4} {
			checkAgainstWalk(t, randomGraph(rng, n, p, false))
			checkAgainstWalk(t, randomGraph(rng, n, p, true))
		}
	}
}

func TestReachabilityEdgeCases(t *testing.T) {
	g := diamond()
	g.Tasks[0].Deps = []string{"D"} // A -> B/C -> D -> A
	checkAgainstWalk(t, g)
	for _, a := range []string{"A", "B", "D", "nobody"} {
		if g.Precedes(a, a) || g.Ordered(a, a) {
			t.Errorf("%s is ordered against itself", a)
		}
	}
	if !g.Precedes("D", "B") || !g.Precedes("B", "D") {
		t.Error("tasks on a dependency cycle precede each other")
	}
	if g.Ordered("A", "nobody") || g.Ordered("nobody", "A") {
		t.Error("an unknown task is ordered against nothing")
	}

	dup := diamond()
	dup.Tasks = append(dup.Tasks, &Task{Name: "B", AreaCLBs: 1, Deps: []string{"C"}})
	checkAgainstWalk(t, dup)
	if !dup.Precedes("C", "B") || !dup.Precedes("A", "B") {
		t.Error("a duplicated name must resolve to its last declaration")
	}
}

// TestValidateErrorsUnchanged pins the exact duplicate-name and cycle
// diagnostics.
func TestValidateErrorsUnchanged(t *testing.T) {
	cases := []struct {
		mutate func(g *Graph)
		want   string
	}{
		{func(g *Graph) { g.Tasks = append(g.Tasks, &Task{Name: "A", AreaCLBs: 1}) }, "taskgraph diamond: duplicate task names"},
		{func(g *Graph) { g.Segments = append(g.Segments, &Segment{Name: "S"}) }, "taskgraph diamond: duplicate segment names"},
		{func(g *Graph) { g.Tasks[0].Deps = []string{"D"} }, "taskgraph diamond: control dependency cycle through A"},
		{func(g *Graph) { g.Tasks[1].Deps = []string{"A", "C"}; g.Tasks[2].Deps = []string{"B"} }, "taskgraph diamond: control dependency cycle through B"},
	}
	for _, c := range cases {
		g := diamond()
		c.mutate(g)
		if err := g.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("Validate() = %v, want %q", err, c.want)
		}
	}
}

// TestConcurrentGraphQueries runs every index-backed query from several
// goroutines on a fresh, never-validated graph; under -race it proves the
// one-time index build is the only writer.
func TestConcurrentGraphQueries(t *testing.T) {
	g := diamond()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !g.Ordered("A", "D") || g.Ordered("B", "C") {
					t.Error("Ordered answered wrongly")
					return
				}
				if !g.Precedes("A", "B") || g.Precedes("D", "A") {
					t.Error("Precedes answered wrongly")
					return
				}
				if g.TaskByName("C") == nil || g.TaskByName("Z") != nil {
					t.Error("TaskByName answered wrongly")
					return
				}
				if m := g.UnorderedMembers([]string{"A", "B", "C"}); len(m) != 2 {
					t.Errorf("UnorderedMembers = %v", m)
					return
				}
			}
		}()
	}
	wg.Wait()
}
