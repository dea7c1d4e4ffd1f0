package main

import (
	"fmt"
	"runtime"
	"time"
)

// op runs schedule entry i — the timed part — and returns its untimed
// output check.
type op func(i int) func() outcome

// setupRepeats is how many set-ups a run aims to time.
const setupRepeats = 30

// setupSamples are a run's set-up times (s) and, taken before each
// set-up, host reference times (ms).
type setupSamples struct {
	ds, ref []float64
}

// notes prints the set-up count and the host reference, which times a
// fixed loop that calls nothing in the program: when every metric of a
// run moves with it, the host's speed moved, not the program's.
func (s setupSamples) notes() []string {
	return []string{
		fmt.Sprintf("setup_s is the median of %d set-ups", len(s.ds)),
		fmt.Sprintf("%-40s %16.6g %s (printed, not gated)", "host_ref_ms", median(s.ref), "ms"),
	}
}

// setupTimer times a workload's fixture set-up. The first set-up builds
// the fixture the run measures; more are timed and torn down at
// intervals through the measurement, so that setup_s, their median,
// samples the same stretch of the host's time as the ops do. Each
// set-up starts after an untimed collection, so that it does not pay
// for the garbage made before it.
type setupTimer[F any] struct {
	setupSamples
	setup    func() (F, error)
	teardown func(F)
	every    time.Duration // 0 in smoke mode: no repeats
	last     time.Time
	err      error
}

// newSetupTimer spaces the repeats so that about setupRepeats fit in
// window.
func newSetupTimer[F any](cfg config, window time.Duration, setup func() (F, error), teardown func(F)) *setupTimer[F] {
	t := &setupTimer[F]{setup: setup, teardown: teardown}
	if !cfg.smoke {
		t.every = window / setupRepeats
	}
	return t
}

// run times one set-up.
func (t *setupTimer[F]) run() (F, error) {
	t.ref = append(t.ref, ms(hostRef()))
	runtime.GC()
	t0 := time.Now()
	f, err := t.setup()
	t.last = time.Now()
	t.ds = append(t.ds, t.last.Sub(t0).Seconds())
	return f, err
}

// again times and tears down one more set-up when the interval since
// the last one has passed. The first error stops the repeats and is
// kept in t.err.
func (t *setupTimer[F]) again() {
	if t.every == 0 || t.err != nil || time.Since(t.last) < t.every {
		return
	}
	f, err := t.run()
	if err != nil {
		t.err = err
		return
	}
	if t.teardown != nil {
		t.teardown(f)
	}
}

// refSink keeps hostRef's loop from being optimized away.
var refSink uint64

// hostRef times 2^20 rounds of a xorshift generator, 1 to 3 ms.
func hostRef() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return time.Since(t0)
}

// loopStats is a closed loop's measurement.
type loopStats struct {
	lat     latencies
	cycles  []float64 // per op; 0 for a failed op
	model   float64
	checked int // ops whose outcome contributed cycles/model
	tally   tally
}

func (s *loopStats) record(d time.Duration, o outcome) {
	s.lat.add(d)
	s.tally.add(o)
	c := 0.0
	if o.err == nil || o.known {
		c = float64(o.cycles)
		s.model += o.model
		s.checked++
	}
	s.cycles = append(s.cycles, c)
}

// minWindows is how many measurement windows a closed loop aims for.
const minWindows = 3

// closedLoop runs whole passes of the schedule (pass ops each) with one
// caller until budget has elapsed and there are minWindows windows of
// ops, but stops at 1.5 × budget or the deadline whatever the count.
// Whole passes keep fail_ratio and model_cycles exact for a seed.
// between runs after each op, untimed.
func closedLoop(cfg config, run op, pass int, budget time.Duration, between func()) loopStats {
	var s loopStats
	start := time.Now()
	minOps := minWindows * minSamplesFor(990)
	if cfg.smoke {
		minOps = 0
	}
	for {
		for i := 0; i < pass; i++ {
			t0 := time.Now()
			check := run(i)
			d := time.Since(t0)
			s.record(d, check())
			between()
		}
		el := time.Since(start)
		if (el >= budget && len(s.lat) >= minOps) || el >= budget*3/2 || time.Now().After(cfg.deadline) {
			return s
		}
	}
}

// allocPass runs one pass of the schedule with the heap counters read
// around each op's timed part, and returns bytes and allocations per op.
// The ops are checked and tallied like timed ones.
func allocPass(run op, pass int, t *tally) (mbPerOp, allocsPerOp float64) {
	var a, b runtime.MemStats
	var bytes, mallocs uint64
	for i := 0; i < pass; i++ {
		runtime.ReadMemStats(&a)
		check := run(i)
		runtime.ReadMemStats(&b)
		bytes += b.TotalAlloc - a.TotalAlloc
		mallocs += b.Mallocs - a.Mallocs
		t.add(check())
	}
	return float64(bytes) / float64(pass) / 1e6, float64(mallocs) / float64(pass)
}

// closedResult turns a closed-loop workload's measurements into the
// end-to-end metrics.
func closedResult(setups setupSamples, s loopStats, mbPerOp, allocsPerOp float64, t tally) *result {
	r := &result{tally: t}
	r.tally.merge(s.tally)
	w := summarizeWindows(s.lat, s.cycles)
	r.set("setup_s", median(setups.ds), "s")
	r.set("op_ms_p50", w.p50, "ms")
	r.set("ops_per_s", w.opsPerS, "1/s")
	r.set("sim_cycles_per_s", w.cyclesPerS, "cycles/s")
	r.set("alloc_mb_per_op", mbPerOp, "MB")
	r.set("allocs_per_op", allocsPerOp, "count")
	r.set("model_cycles", s.model/float64(max(s.checked, 1)), "cycles")
	r.show("op_ms_p99", w.p99, "ms")
	r.notes = append(r.notes, samplesNote(len(s.lat), w))
	r.notes = append(r.notes, setups.notes()...)
	return r
}

func samplesNote(n int, w windowed) string {
	note := fmt.Sprintf("op samples %d in %d windows; p50/p99/throughput are medians over the windows", n, w.windows)
	if !w.tailOK {
		note += " (below the p99 tail-sample rule)"
	}
	return note
}
