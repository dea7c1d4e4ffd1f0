package main

import (
	"fmt"
	"reflect"
	"time"

	"sparcs"
	"sparcs/internal/arbinsert"
	"sparcs/internal/arbiter"
	"sparcs/internal/core"
	"sparcs/internal/fft"
	"sparcs/internal/partition"
	"sparcs/internal/rc"
	"sparcs/internal/sim"
	"sparcs/internal/workload"
)

// fft-flow: the paper's flow, one caller in a closed loop. Each op builds
// a fresh FFTSystem(6), runs it with a seeded input image, full trace
// capture and a policy cycling rr/priority/wrr:2, and extracts the
// 6-line replay column.

const fftTiles = 6

var fftPolicies = []string{"rr", "priority", "wrr:2"}

// fftFixture is the fft-flow schedule: one input seed per op.
type fftFixture struct {
	inSeeds []int64
	// report is core.Compile's Report() for the design, the reference
	// the traced run's mirrored compile phases must reproduce.
	report string
}

func fftPass(cfg config) int {
	if cfg.smoke {
		return len(fftPolicies)
	}
	return 16 * len(fftPolicies)
}

func newFFTFixture(cfg config) (*fftFixture, error) {
	f := &fftFixture{}
	for i := 0; i < fftPass(cfg); i++ {
		f.inSeeds = append(f.inSeeds, int64(splitmix(cfg.seed, uint64(i))>>1))
	}
	sys, err := sparcs.FFTSystem(fftTiles)
	if err != nil {
		return nil, err
	}
	f.report = sys.Report()
	// Warm every policy's path once.
	for i := range fftPolicies {
		if o := f.op(i)(); o.err != nil {
			return nil, fmt.Errorf("fft-flow warm-up: %w", o.err)
		}
	}
	return f, nil
}

func (f *fftFixture) op(i int) func() outcome {
	pol := fftPolicies[i%len(fftPolicies)]
	sys, err := sparcs.FFTSystem(fftTiles)
	if err != nil {
		return func() outcome { return failed("build", err) }
	}
	mem := sparcs.NewMemory()
	in := sparcs.LoadFFTInput(mem, fftTiles, f.inSeeds[i])
	res, err := sys.Run(sparcs.WithMemory(mem), sparcs.WithCapture(), sparcs.WithPolicy(pol))
	if err != nil {
		return func() outcome { return failed("run", err) }
	}
	_, colErr := res.ColumnByWidth("fft", 6)
	return func() outcome {
		return checkFFT(res.TotalCycles, res.Violations(), mem, in, colErr)
	}
}

func checkFFT(totalCycles int, viol []sim.Violation, mem *sparcs.Memory, in [][]int64, colErr error) outcome {
	if colErr != nil {
		return failed("column", colErr)
	}
	if len(viol) > 0 {
		return failed("violations", fmt.Errorf("%d sim violations, first: %+v", len(viol), viol[0]))
	}
	if err := sparcs.CheckFFTOutput(mem, in); err != nil {
		return failed("fft-output", err)
	}
	return outcome{cycles: int64(totalCycles), model: float64(totalCycles)}
}

func runFFTFlow(cfg config) (*result, error) {
	budget := seconds(cfg.seconds)
	st := newSetupTimer(cfg, budget, func() (*fftFixture, error) { return newFFTFixture(cfg) }, nil)
	f, err := st.run()
	if err != nil {
		return nil, err
	}
	var t tally
	mb, allocs := allocPass(f.op, fftPass(cfg), &t)
	s := closedLoop(cfg, f.op, fftPass(cfg), budget, st.again)
	if st.err != nil {
		return nil, st.err
	}
	return closedResult(st.setupSamples, s, mb, allocs, t), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// fftRunOpts mirrors System.Run's option composition for a policy.
func fftRunOpts(pol string, capture bool) (core.Options, error) {
	spec, err := arbiter.ParsePolicySpec(pol)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Partition:     partition.Options{FixedStages: fft.PaperStages()},
		DisableTraces: !capture,
		NewPolicy: func(n int) arbiter.Policy {
			p, err := spec.New(n)
			if err != nil {
				panic(err)
			}
			return p
		},
		NewPolicyWidened: func(members, width int) arbiter.Policy {
			p, err := spec.NewWidened(members, width)
			if err != nil {
				panic(err)
			}
			return p
		},
	}, nil
}

// mirrorCompile runs core.Compile's phases for the FFT design under
// spans and assembles the Design.
func mirrorCompile(rec *recorder, parent, opID int) (*core.Design, error) {
	g, board, programs := fft.Taskgraph(), rc.Wildforce(), fft.Programs(fftTiles)
	popts := partition.Options{FixedStages: fft.PaperStages()}
	var stages []*partition.Stage
	var err error
	cid := rec.begin("core.compile", parent, opID)
	defer rec.end(cid)
	rec.span("partition.temporal", cid, opID, func() { stages, err = partition.Temporal(g, board, popts) })
	if err != nil {
		return nil, err
	}
	d := &core.Design{Graph: g, Board: board}
	for _, st := range stages {
		var routes []partition.PhysChannel
		rec.span("partition.route", cid, opID, func() { routes, err = partition.RouteChannels(g, board, st) })
		if err != nil {
			return nil, err
		}
		var ins *arbinsert.Result
		rec.span("arbinsert.insert", cid, opID, func() { ins, err = arbinsert.Insert(g, board, st, routes, programs, arbinsert.Options{}) })
		if err != nil {
			return nil, err
		}
		d.Stages = append(d.Stages, &core.StagePlan{Stage: st, Routes: routes, Inserted: ins})
	}
	return d, nil
}

// stageSummary is the part of a stage's stats the mirror must reproduce.
type stageSummary struct {
	Cycles                        int
	Done                          bool
	TaskFinish, WaitCycles, Grant map[string]int
	Violations                    int
}

func summarize(st *sim.Stats) stageSummary {
	return stageSummary{st.Cycles, st.Done, st.TaskFinish, st.WaitCycles, st.GrantsByRes, len(st.Violations)}
}

// tracedOp runs op i of the schedule through the mirror and returns its
// check and the time of the capture-off replay (ms), which the untraced
// op does not do.
func (f *fftFixture) tracedOp(rec *recorder, opID, i int) (check func() outcome, replayMs float64) {
	pol := fftPolicies[i%len(fftPolicies)]
	root := rec.begin("fft.op", -1, opID)
	d, err := mirrorCompile(rec, root, opID)
	if err != nil {
		rec.end(root)
		return func() outcome { return failed("mirror-compile", err) }, 0
	}
	offOpts, err := fftRunOpts(pol, false)
	if err != nil {
		rec.end(root)
		return func() outcome { return failed("policy", err) }, 0
	}
	onOpts, _ := fftRunOpts(pol, true)
	memOff, memOn := sparcs.NewMemory(), sparcs.NewMemory()
	in := sparcs.LoadFFTInput(memOff, fftTiles, f.inSeeds[i])
	sparcs.LoadFFTInput(memOn, fftTiles, f.inSeeds[i])
	var off, on []*sim.Stats
	for si := range d.Stages {
		var st *sim.Stats
		replayMs += ms(rec.span("sim.stage", root, opID, func() { st, err = core.SimulateStage(d, si, memOff, offOpts) }))
		if err != nil {
			break
		}
		off = append(off, st)
	}
	for si := range d.Stages {
		if err != nil {
			break
		}
		var st *sim.Stats
		rec.span("sim.stage_capture", root, opID, func() { st, err = core.SimulateStage(d, si, memOn, onOpts) })
		on = append(on, st)
	}
	var colErr error
	if err == nil {
		rec.span("workload.from_trace", root, opID, func() { _, colErr = mirrorColumn(d, on, 6) })
	}
	rec.end(root)
	return func() outcome {
		if err != nil {
			return failed("mirror-run", err)
		}
		if got := d.Report(); got != f.report {
			return failed("mirror-compile", fmt.Errorf("mirrored compile phases do not reproduce core.Compile's Report()"))
		}
		total := 0
		var viol []sim.Violation
		for si := range on {
			if !reflect.DeepEqual(summarize(off[si]), summarize(on[si])) {
				return failed("capture-perturbs", fmt.Errorf("stage %d stats differ with capture on", si))
			}
			total += on[si].Cycles
			viol = append(viol, on[si].Violations...)
		}
		if o := checkFFT(total, viol, memOff, in, colErr); o.err != nil {
			return o
		}
		return checkFFT(total, viol, memOn, in, colErr)
	}, replayMs
}

// mirrorColumn is Result.ColumnByWidth over per-stage stats.
func mirrorColumn(d *core.Design, stats []*sim.Stats, n int) (workload.Column, error) {
	for si, st := range stats {
		for _, a := range d.Stages[si].Inserted.Arbiters {
			if tr := st.ArbiterTraces[a.Resource]; len(tr) > 0 && len(tr[0].Req) == n {
				return workload.FromArbiterTrace(fmt.Sprintf("fft:%s", a.Resource), tr)
			}
		}
	}
	return workload.Column{}, fmt.Errorf("no captured %d-line request stream", n)
}

// mirrorMatchesRun checks that the mirror reproduces System.Run's
// per-stage statistics for op i.
func (f *fftFixture) mirrorMatchesRun(i int) error {
	pol := fftPolicies[i%len(fftPolicies)]
	sys, err := sparcs.FFTSystem(fftTiles)
	if err != nil {
		return err
	}
	mem := sparcs.NewMemory()
	sparcs.LoadFFTInput(mem, fftTiles, f.inSeeds[i])
	res, err := sys.Run(sparcs.WithMemory(mem), sparcs.WithCapture(), sparcs.WithPolicy(pol))
	if err != nil {
		return err
	}
	d, err := mirrorCompile(newRecorder(), -1, 0)
	if err != nil {
		return err
	}
	opts, err := fftRunOpts(pol, true)
	if err != nil {
		return err
	}
	mm := sparcs.NewMemory()
	sparcs.LoadFFTInput(mm, fftTiles, f.inSeeds[i])
	for si := range d.Stages {
		st, err := core.SimulateStage(d, si, mm, opts)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(summarize(st), summarize(res.Stages[si].Stats)) ||
			!reflect.DeepEqual(st.ArbiterTraces, res.Stages[si].Stats.ArbiterTraces) {
			return fmt.Errorf("stage %d: mirrored run differs from System.Run", si)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
