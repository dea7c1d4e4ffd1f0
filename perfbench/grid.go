package main

import (
	"fmt"
	"time"

	"sparcs"
	"sparcs/internal/arbiter"
	"sparcs/internal/workload"
)

// policy-grid: one caller in a closed loop; each op is one
// sparcs.EvaluatePolicies over 7 policies × 4 contention shapes, with the
// arbiter width cycling 6 → 16 → 64. No build, sim, capture or service
// work: this is the arbiter and workload-generator kernels alone.

var (
	gridPolicies = []string{"rr", "fifo", "priority", "random:1", "preemptive:4", "wrr:2", "hier:2"}
	gridShapes   = []string{"bernoulli:0.30", "hotspot:0.90", "hog", "trace"}
	gridNs       = []int{6, 16, 64}
)

// gridCycles is the run length of one grid cell. With one P the grid's
// 28 cells run one after another, and 1000 cycles keep a run's 3000 ops
// inside the run's time.
const gridCycles = 1000

// gridFixture is the policy-grid schedule: one grid seed per op.
type gridFixture struct {
	seeds  []uint64
	cycles int
}

func gridPass(cfg config) int {
	if cfg.smoke {
		return len(gridNs)
	}
	return 10 * len(gridNs)
}

func newGridFixture(cfg config) (*gridFixture, error) {
	f := &gridFixture{cycles: gridCycles}
	if cfg.smoke {
		f.cycles = 200
	}
	for i := 0; i < gridPass(cfg); i++ {
		f.seeds = append(f.seeds, splitmix(cfg.seed, uint64(i))|1)
	}
	for i := range gridNs {
		if o := f.op(i)(); o.err != nil {
			return nil, fmt.Errorf("policy-grid warm-up: %w", o.err)
		}
	}
	return f, nil
}

func (f *gridFixture) opts(i int) sparcs.EvaluateOptions {
	return sparcs.EvaluateOptions{N: gridNs[i%len(gridNs)], Cycles: f.cycles, Seed: f.seeds[i]}
}

func (f *gridFixture) op(i int) func() outcome {
	cells, err := sparcs.EvaluatePolicies(gridPolicies, gridShapes, f.opts(i))
	return func() outcome {
		if err != nil {
			return failed("grid", err)
		}
		return checkGrid(cells, f.cycles)
	}
}

func checkGrid(cells []*sparcs.PolicyMetrics, cycles int) outcome {
	if len(cells) != len(gridPolicies)*len(gridShapes) {
		return failed("grid", fmt.Errorf("%d cells, want %d", len(cells), len(gridPolicies)*len(gridShapes)))
	}
	var granted int64
	for _, m := range cells {
		if m.Violation != "" {
			return failed("violation", fmt.Errorf("%s × %s: %s", m.Policy, m.Workload, m.Violation))
		}
		granted += m.GrantedCycles
	}
	return outcome{cycles: int64(len(cells) * cycles), model: float64(granted)}
}

func runPolicyGrid(cfg config) (*result, error) {
	budget := seconds(cfg.seconds)
	st := newSetupTimer(cfg, budget, func() (*gridFixture, error) { return newGridFixture(cfg) }, nil)
	f, err := st.run()
	if err != nil {
		return nil, err
	}
	var t tally
	mb, allocs := allocPass(f.op, gridPass(cfg), &t)
	s := closedLoop(cfg, f.op, gridPass(cfg), budget, st.again)
	if st.err != nil {
		return nil, st.err
	}
	return closedResult(st.setupSamples, s, mb, allocs, t), nil
}

// gridKernelNs holds the traced run's per-width kernel timings.
type gridKernelNs struct {
	driveCycles, genCycles, stepCycles int64
	driveNs, genNs, stepNs             int64
}

// tracedOp runs op i's grid cell by cell through workload.Drive,
// sequentially, under one span per cell. At widths 6 and 64 it then
// records each cell's request/grant streams and replays the generator
// (NextBits over the recorded grants) and the policy (StepBits over the
// recorded requests) alone, each checked against the recording.
// It returns the check, the cells and the time spent in the replays,
// which the untraced op does not do.
func (f *gridFixture) tracedOp(rec *recorder, opID, i int, k map[int]*gridKernelNs) (check func() outcome, cells []*sparcs.PolicyMetrics, replay time.Duration) {
	opt := f.opts(i)
	n := opt.N
	if k[n] == nil {
		k[n] = &gridKernelNs{}
	}
	kn := k[n]
	root := rec.begin("grid.op", -1, opID)
	cells = make([]*sparcs.PolicyMetrics, 0, len(gridPolicies)*len(gridShapes))
	var err error
	for _, ps := range gridPolicies {
		spec, perr := arbiter.ParsePolicySpec(ps)
		if perr != nil {
			err = perr
			break
		}
		for wi, ws := range gridShapes {
			// RunGridColumns' per-column seed derivation.
			seed := opt.Seed + uint64(wi)*0x9e3779b97f4a7c15
			p, perr := spec.New(n)
			g, gerr := workload.SpecColumn(ws).New(n, seed)
			if perr != nil || gerr != nil {
				err = fmt.Errorf("cell %s × %s: %v %v", ps, ws, perr, gerr)
				break
			}
			var m *workload.Metrics
			kn.driveNs += int64(rec.span("workload.drive", root, opID, func() { m, err = workload.Drive(p, g, f.cycles) }))
			kn.driveCycles += int64(f.cycles)
			if err != nil {
				break
			}
			cells = append(cells, m)
			if n == 6 || n == 64 {
				t0 := time.Now()
				rerr := kernelReplay(rec, root, opID, spec, ws, n, seed, f.cycles, kn)
				replay += time.Since(t0)
				if rerr != nil {
					err = rerr
					break
				}
			}
		}
		if err != nil {
			break
		}
	}
	rec.end(root)
	return func() outcome {
		if err != nil {
			return failed("grid", err)
		}
		return checkGrid(cells, f.cycles)
	}, cells, replay
}

// kernelReplay records one cell's closed-loop request and grant streams,
// then times the generator and the policy alone over them.
func kernelReplay(rec *recorder, parent, opID int, spec *arbiter.PolicySpec, shape string, n int, seed uint64, cycles int, kn *gridKernelNs) error {
	newPair := func() (arbiter.BitStepper, workload.BitGenerator, error) {
		p, err := spec.New(n)
		if err != nil {
			return nil, nil, err
		}
		g, err := workload.SpecColumn(shape).New(n, seed)
		if err != nil {
			return nil, nil, err
		}
		bg, ok := g.(workload.BitGenerator)
		if !ok {
			return nil, nil, fmt.Errorf("%s has no NextBits", shape)
		}
		return arbiter.AsBitStepper(p), bg, nil
	}
	st, g, err := newPair()
	if err != nil {
		return err
	}
	reqs := make([]arbiter.BitVec, cycles)
	grants := make([]arbiter.BitVec, cycles)
	var grant arbiter.BitVec
	for c := 0; c < cycles; c++ {
		reqs[c] = g.NextBits(grant)
		grant = st.StepBits(reqs[c])
		grants[c] = grant
	}
	st, g, err = newPair()
	if err != nil {
		return err
	}
	out := make([]arbiter.BitVec, cycles)
	kn.genNs += int64(rec.span("workload.gen", parent, opID, func() {
		var prev arbiter.BitVec
		for c := 0; c < cycles; c++ {
			out[c] = g.NextBits(prev)
			prev = grants[c]
		}
	}))
	kn.genCycles += int64(cycles)
	for c := range out {
		if out[c] != reqs[c] {
			return fmt.Errorf("generator replay of %s diverged at cycle %d", shape, c)
		}
	}
	kn.stepNs += int64(rec.span("arbiter.step", parent, opID, func() {
		for c := 0; c < cycles; c++ {
			out[c] = st.StepBits(reqs[c])
		}
	}))
	kn.stepCycles += int64(cycles)
	for c := range out {
		if out[c] != grants[c] {
			return fmt.Errorf("policy replay of %s diverged at cycle %d", spec, c)
		}
	}
	return nil
}
