package main

import (
	"errors"
	"fmt"
	"runtime"

	"sparcs"
)

// scenario-churn: one caller in a closed loop; each op is one
// sparcs.RunScenario of 16 FFT jobs in two classes arriving bursty/256 on
// a 192×24 fabric with hybrid prefetch, compaction and cross-contention.
// Many short stage runs dominated by per-stage set-up, no build and no
// capture.

const scenarioJobs = 16

// errOracle marks the known oracle defect (README.md): with two classes
// plus cross-contention the oracle "lower bound" can exceed the online
// makespan.
var errOracle = errors.New("makespan below the oracle lower bound")

type scenarioFixture struct {
	entries []sparcs.ScenarioEntry
	stages  []int // per-class stage count, for stage-run accounting
	seeds   []uint64
	jobs    int
}

// scenarioPass is the schedule length. model_cycles is the mean makespan
// over a pass, and one op's makespan depends on its seed's arrivals, so
// the pass is long enough that the mean varies little between workload
// seeds (README.md, "Baseline and bounds").
func scenarioPass(cfg config) int {
	if cfg.smoke {
		return 2
	}
	return 256
}

func newScenarioFixture(cfg config) (*scenarioFixture, error) {
	small, err := sparcs.FFTSystem(2)
	if err != nil {
		return nil, err
	}
	big, err := sparcs.FFTSystem(4)
	if err != nil {
		return nil, err
	}
	f := &scenarioFixture{
		entries: []sparcs.ScenarioEntry{
			{Name: "fft2-rr", System: small, Options: []sparcs.RunOption{sparcs.WithPolicy("rr")}},
			{Name: "fft4-wrr", System: big, Options: []sparcs.RunOption{sparcs.WithPolicy("wrr:2"), sparcs.WithContention("M1=hog/1")}},
		},
		stages: []int{len(small.Design().Stages), len(big.Design().Stages)},
		jobs:   scenarioJobs,
	}
	if cfg.smoke {
		f.jobs = 4
	}
	for i := 0; i < scenarioPass(cfg); i++ {
		f.seeds = append(f.seeds, splitmix(cfg.seed, uint64(i))|1)
	}
	if o := f.op(0)(); o.err != nil && !o.known {
		return nil, fmt.Errorf("scenario-churn warm-up: %w", o.err)
	}
	return f, nil
}

func (f *scenarioFixture) config(i int) sparcs.ScenarioConfig {
	return sparcs.ScenarioConfig{
		Entries:         f.entries,
		Arrivals:        "bursty/256",
		Jobs:            f.jobs,
		Seed:            f.seeds[i],
		Prefetch:        sparcs.PrefetchHybrid,
		FabricCols:      192,
		FabricRows:      24,
		CompactionDelay: 64,
		CrossContention: "bernoulli:0.2",
	}
}

// stageRuns is the number of stage executions in one scenario: every job
// runs each of its class's stages once (classes cycle round-robin).
func (f *scenarioFixture) stageRuns() int {
	n := 0
	for j := 0; j < f.jobs; j++ {
		n += f.stages[j%len(f.stages)]
	}
	return n
}

func (f *scenarioFixture) op(i int) func() outcome {
	res, err := sparcs.RunScenario(f.config(i))
	return func() outcome {
		if err != nil {
			return failed("scenario", err)
		}
		return f.check(res)
	}
}

func (f *scenarioFixture) check(res *sparcs.ScenarioResult) outcome {
	if len(res.Jobs) != f.jobs {
		return failed("unfinished", fmt.Errorf("%d of %d jobs reported", len(res.Jobs), f.jobs))
	}
	for _, j := range res.Jobs {
		if j.Finish <= 0 || j.Timeouts > 0 {
			return failed("unfinished", fmt.Errorf("job %d: finish %d, %d stage timeouts", j.ID, j.Finish, j.Timeouts))
		}
	}
	o := outcome{cycles: int64(res.Makespan), model: float64(res.Makespan)}
	if res.Makespan < res.OracleMakespan {
		o.err = fmt.Errorf("%w: makespan %d < oracle %d", errOracle, res.Makespan, res.OracleMakespan)
		o.kind = "oracle-violation"
		o.known = true
	}
	return o
}

func runScenarioChurn(cfg config) (*result, error) {
	budget := seconds(cfg.seconds)
	st := newSetupTimer(cfg, budget, func() (*scenarioFixture, error) { return newScenarioFixture(cfg) }, nil)
	f, err := st.run()
	if err != nil {
		return nil, err
	}
	var t tally
	mb, allocs := allocPass(f.op, scenarioPass(cfg), &t)
	s := closedLoop(cfg, f.op, scenarioPass(cfg), budget, st.again)
	if st.err != nil {
		return nil, st.err
	}
	return closedResult(st.setupSamples, s, mb, allocs, t), nil
}

// scenarioTrace accumulates the traced run's scenario-layer figures.
type scenarioTrace struct {
	ops, stageRuns                   int
	hostNs, makespan, mallocs        int64
	stall, portBusy, overOracle      float64
	queueP99, placeFails, compaction float64
	violations                       int
}

// tracedOp runs op i under a span with the heap counters read around
// it, and accumulates the scenario metrics from its Result.
func (f *scenarioFixture) tracedOp(rec *recorder, opID, i int, acc *scenarioTrace) func() outcome {
	var a, b runtime.MemStats
	var res *sparcs.ScenarioResult
	var err error
	runtime.ReadMemStats(&a)
	d := rec.span("scenario.run", -1, opID, func() { res, err = sparcs.RunScenario(f.config(i)) })
	runtime.ReadMemStats(&b)
	return func() outcome {
		if err != nil {
			return failed("scenario", err)
		}
		o := f.check(res)
		if o.err != nil && !o.known {
			return o
		}
		acc.ops++
		acc.stageRuns += f.stageRuns()
		acc.hostNs += int64(d)
		acc.mallocs += int64(b.Mallocs - a.Mallocs)
		acc.makespan += int64(res.Makespan)
		acc.stall += res.StallFraction
		acc.portBusy += res.PortBusyFraction
		acc.overOracle += float64(res.Makespan) / float64(res.OracleMakespan)
		acc.queueP99 += float64(res.QueueWaitP99)
		acc.placeFails += float64(res.PlaceFails)
		acc.compaction += float64(res.Compactions)
		if o.known {
			acc.violations++
		}
		return o
	}
}
