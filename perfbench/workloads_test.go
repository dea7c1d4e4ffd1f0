package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"sparcs"
	"sparcs/internal/scenario"
)

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func smokeConfig(t *testing.T, w string, seed uint64) config {
	return config{workload: w, seed: seed, seconds: 0.05, smoke: true,
		deadline: time.Now().Add(2 * time.Minute), spanDir: t.TempDir()}
}

// checkMetrics requires exactly the declared metrics, each finite.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []string) {
	t.Helper()
	for _, n := range want {
		m, ok := got[n]
		if !ok {
			t.Errorf("%s: metric %s not reported", label, n)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("%s: metric %s = %v %q", label, n, m.Value, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", label, len(got), len(want))
	}
}

// TestSmokeEveryWorkload runs every workload, untraced and traced, in
// smoke mode: every op is checked, every declared metric is reported and
// the untraced end-to-end metrics are positive.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for w, run := range workloads {
		res, err := run(smokeConfig(t, w, 3))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.tally.attempted == 0 || !res.tally.correct() {
			t.Errorf("%s: attempted %d, failed %d (known %d): %v", w, res.tally.attempted, res.tally.failed, res.tally.known, res.tally.first)
		}
		checkMetrics(t, w, res.metrics, endToEnd)
		for n, m := range res.metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, n, m.Value)
			}
		}
	}
	// Each traced run measures trace.overhead_ratio on its own workload's
	// probe against that workload's untraced op.
	for w := range workloads {
		res, err := runTraced(smokeConfig(t, w, 3))
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if res.tally.attempted == 0 || !res.tally.correct() {
			t.Errorf("%s traced: failed %d (known %d): %v", w, res.tally.failed, res.tally.known, res.tally.first)
		}
		checkMetrics(t, w+" traced", res.metrics, perLayer)
		if r := res.metrics["trace.overhead_ratio"].Value; r <= 0 {
			t.Errorf("%s traced: trace.overhead_ratio = %v, want > 0", w, r)
		}
	}
}

func TestRunPrintsReportLast(t *testing.T) {
	var out bytes.Buffer
	cfg := smokeConfig(t, "policy-grid", 1)
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range rep {
		keys = append(keys, k)
	}
	if len(keys) != 4 || rep["correct"] == nil || rep["attempted"] == nil || rep["failed"] == nil || rep["metrics"] == nil {
		t.Errorf("report keys = %v", keys)
	}
	if err := run(config{workload: "nope", seconds: 1}, &out); err == nil {
		t.Error("an unknown workload must fail")
	}
}

// TestSameSeedSameSchedule: the seed alone fixes the sparcsd request
// schedule and every workload's model_cycles.
func TestSameSeedSameSchedule(t *testing.T) {
	sched := func(seed uint64) []sdRequest {
		s, err := sdSchedule(rand.New(rand.NewPCG(seed, 0x5ba7c5d)), 200, map[designKey]string{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := sched(7), sched(7), sched(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different sparcsd schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same sparcsd schedule")
	}
	var tails, sweeps int
	for _, r := range a {
		if r.sweep {
			sweeps++
		} else if r.exp.Run.Policy == "" {
			tails++
		}
	}
	if tails != 20 || sweeps != 10 {
		t.Errorf("200 requests hold %d tail experiments and %d sweeps, want 20 and 10", tails, sweeps)
	}
	for w, run := range workloads {
		r1, err := run(smokeConfig(t, w, 5))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := run(smokeConfig(t, w, 5))
		if err != nil {
			t.Fatal(err)
		}
		if m1, m2 := r1.metrics["model_cycles"].Value, r2.metrics["model_cycles"].Value; m1 != m2 {
			t.Errorf("%s: model_cycles %v then %v for one seed", w, m1, m2)
		}
		if r1.tally.failed != r2.tally.failed {
			t.Errorf("%s: %d then %d failed ops for one seed", w, r1.tally.failed, r2.tally.failed)
		}
	}
}

// TestChecksCatchBadOutputs feeds each workload's check a wrong output.
func TestChecksCatchBadOutputs(t *testing.T) {
	// fft-flow: an output image checked against another input fails.
	sys, err := sparcs.FFTSystem(fftTiles)
	if err != nil {
		t.Fatal(err)
	}
	mem := sparcs.NewMemory()
	sparcs.LoadFFTInput(mem, fftTiles, 1)
	res, err := sys.Run(sparcs.WithMemory(mem))
	if err != nil {
		t.Fatal(err)
	}
	other := sparcs.LoadFFTInput(sparcs.NewMemory(), fftTiles, 2)
	if o := checkFFT(res.TotalCycles, nil, mem, other, nil); o.err == nil {
		t.Error("fft check passed a wrong output image")
	}
	if o := checkFFT(res.TotalCycles, nil, mem, other, errors.New("no column")); o.err == nil {
		t.Error("fft check passed a missing column")
	}

	// policy-grid: a cell violation fails.
	cells, err := sparcs.EvaluatePolicies(gridPolicies, gridShapes, sparcs.EvaluateOptions{N: 6, Cycles: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o := checkGrid(cells, 100); o.err != nil {
		t.Fatalf("clean grid failed its check: %v", o.err)
	}
	cells[3].Violation = "cycle 1: mutual-exclusion"
	if o := checkGrid(cells, 100); o.err == nil {
		t.Error("grid check passed a violation")
	}

	// scenario-churn: an unfinished job fails; makespan below the oracle
	// is the known defect, counted as failed.
	f := &scenarioFixture{jobs: 1}
	if o := f.check(&scenario.Result{Makespan: 10, OracleMakespan: 9, Jobs: []scenario.JobStats{{Finish: 10, Timeouts: 1}}}); o.err == nil || o.known {
		t.Error("scenario check passed a timed-out job")
	}
	o := f.check(&scenario.Result{Makespan: 9, OracleMakespan: 10, Jobs: []scenario.JobStats{{Finish: 9}}})
	if o.err == nil || !o.known || !errors.Is(o.err, errOracle) {
		t.Errorf("makespan below the oracle: %+v", o)
	}
	var tl tally
	tl.add(o)
	if tl.failed != 1 || !tl.correct() {
		t.Errorf("known defect tally: failed %d, correct %v", tl.failed, tl.correct())
	}
	tl.add(failed("x", errors.New("x")))
	if tl.correct() {
		t.Error("an unexpected failure must make the run incorrect")
	}

	// sparcsd-mixed: a wrong hash, a non-200 and a body that differs from
	// service.OfflineResult all fail.
	fx := &sdFixture{offline: map[string][]byte{}}
	reqs, err := sdSchedule(rand.New(rand.NewPCG(1, 2)), 40, map[designKey]string{})
	if err != nil {
		t.Fatal(err)
	}
	r := &reqs[0]
	for i := 1; r.sweep; i++ {
		r = &reqs[i]
	}
	body, hash, err := fx.offlineBody(r.exp)
	if err != nil {
		t.Fatal(err)
	}
	if hash != r.hash {
		t.Errorf("replayed DesignHash %s, offline %s", r.hash, hash)
	}
	if o := checkServed(r, sdResponse{hash: r.hash, body: body}); o.err != nil {
		t.Errorf("good response failed: %v", o.err)
	}
	if o := checkServed(r, sdResponse{hash: "x", body: body}); o.err == nil {
		t.Error("wrong design hash passed")
	}
	if o := checkServed(r, sdResponse{err: errors.New("status 429")}); o.err == nil {
		t.Error("non-200 passed")
	}
	if err := fx.checkOffline(r, body); err != nil {
		t.Errorf("offline body differs from itself: %v", err)
	}
	bad := bytes.Replace(body, []byte(`"totalCycles":`), []byte(`"totalCycles":1`), 1)
	if err := fx.checkOffline(r, bad); err == nil {
		t.Error("a tampered body matched service.OfflineResult")
	}
}
