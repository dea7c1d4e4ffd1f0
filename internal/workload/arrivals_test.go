package workload

import (
	"reflect"
	"testing"
)

// TestArrivals pins the arrival-process adapter: the stride grammar,
// arrivals only on stride polls, and a Reset that replays the identical
// arrival stream.
func TestArrivals(t *testing.T) {
	for _, bad := range []string{"bursty/0", "bursty/x", "nope", "bernoulli:2"} {
		if _, err := NewArrivals(bad, 1); err == nil {
			t.Errorf("NewArrivals(%q) should fail", bad)
		}
	}
	a, err := NewArrivals("bernoulli:0.30/4", 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "bernoulli:0.30/4" {
		t.Fatalf("name %q, want bernoulli:0.30/4", a.Name())
	}
	run := func() []int {
		var at []int
		for c := 0; c < 4000; c++ {
			if a.Tick() {
				at = append(at, c)
			}
		}
		return at
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no arrivals in 4000 cycles at rate 0.30")
	}
	for _, c := range first {
		if c%4 != 3 {
			t.Fatalf("arrival at cycle %d is off the stride-4 poll", c)
		}
	}
	a.Reset()
	if again := run(); !reflect.DeepEqual(first, again) {
		t.Fatal("Reset did not replay the identical arrival stream")
	}
}
