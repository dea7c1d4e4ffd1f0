package core

import (
	"errors"
	"strings"
	"testing"

	"sparcs/internal/fft"
	"sparcs/internal/rc"
)

// TestFingerprint: the design hash is stable across calls on fresh
// inputs, ignores run-time options, moves when any build input that
// shapes the compiled design changes, and refuses a function-valued
// area model with ErrUnhashable.
func TestFingerprint(t *testing.T) {
	hash := func(tiles int, opts Options) string {
		t.Helper()
		h, err := Fingerprint(fft.Taskgraph(), rc.Wildforce(), fft.Programs(tiles), opts)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := hash(2, paperOpts())
	if !strings.HasPrefix(base, "sha256:") {
		t.Fatalf("hash %q lacks the sha256: prefix", base)
	}
	if again := hash(2, paperOpts()); again != base {
		t.Fatalf("hash of identical inputs moved: %s vs %s", again, base)
	}
	runOnly := paperOpts()
	runOnly.ContentionSeed = 9
	runOnly.MaxCyclesPerStage = 1000
	runOnly.DisableTraces = true
	if h := hash(2, runOnly); h != base {
		t.Fatal("run-time options changed the design hash")
	}
	if hash(3, paperOpts()) == base {
		t.Fatal("different task programs hash alike")
	}
	m := paperOpts()
	m.Insert.M = 4
	conservative := paperOpts()
	conservative.Insert.Conservative = true
	expected := paperOpts()
	expected.Partition.ExpectedContention = map[string]int{"M3": 1, "M1": 2}
	auto := Options{}
	for name, opts := range map[string]Options{
		"accesses per grant": m, "conservative": conservative,
		"expected contention": expected, "automatic stages": auto,
	} {
		if hash(2, opts) == base {
			t.Errorf("%s: build option change left the hash unchanged", name)
		}
	}
	area := paperOpts()
	area.Partition.ArbArea = func(int) int { return 1 }
	if _, err := Fingerprint(fft.Taskgraph(), rc.Wildforce(), fft.Programs(2), area); !errors.Is(err, ErrUnhashable) {
		t.Fatalf("custom area model: err %v, want ErrUnhashable", err)
	}
}
