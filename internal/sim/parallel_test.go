package sim

import (
	"sync/atomic"
	"testing"
)

// TestParallelFor: every index in [0, n) runs exactly once whether n is
// below or above the worker count, and n <= 0 returns without calling
// fn instead of hanging.
func TestParallelFor(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 3, 257} {
		counts := make([]atomic.Int32, max(n, 0))
		ParallelFor(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}
