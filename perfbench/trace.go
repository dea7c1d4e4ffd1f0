package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"sparcs"
	"sparcs/internal/core"
	"sparcs/internal/service"
	"sparcs/internal/sim"
)

// The traced run. Every workload's traced run executes all four layer
// probes, so every per-layer metric is reported on every workload; the
// probe of the workload named on the command line gets twice the time
// and runs each schedule entry twice, through the traced probe and
// through the untraced workload op, for trace.overhead_ratio. The probes call each layer's public functions
// from this file's code and record a span around each call; equality
// checks make sure the probes run the same program as the untraced
// workloads.

// tracer hands out op ids across probes.
type tracer struct {
	rec *recorder
	ops int
}

func (t *tracer) next() int {
	t.ops++
	return t.ops
}

// twinRatio runs the traced probe op and, when twin, the untraced
// workload op of the same schedule entry (alternating which goes first),
// returning both durations; the traced one excludes the replay-only time
// the probe reports.
func twinRatio(twin bool, i int, traced, plain func() time.Duration) (dt, dp time.Duration) {
	if twin && i%2 == 1 {
		dp = plain()
	}
	dt = traced()
	if twin && i%2 == 0 {
		dp = plain()
	}
	return dt, dp
}

// untraced times schedule entry i of the workload itself, as its closed
// loop does, and tallies the checked outcome.
func untraced(run op, i int, t *tally) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		check := run(i)
		d := time.Since(t0)
		t.add(check())
		return d
	}
}

// ratios collects traced/untraced op time ratios.
type ratios []float64

func (r *ratios) add(dt, dp time.Duration) {
	if dp > 0 {
		*r = append(*r, float64(dt)/float64(dp))
	}
}

func runTraced(cfg config) (*result, error) {
	if _, ok := workloads[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	tr := &tracer{rec: newRecorder()}
	r := &result{}
	share := cfg.seconds / 5
	budget := func(w string) time.Duration {
		if w == cfg.workload {
			return seconds(2 * share)
		}
		return seconds(share)
	}
	probes := []struct {
		name string
		run  func(config, *tracer, time.Duration, bool, *result) (ratios, error)
	}{
		{"fft-flow", fftProbe},
		{"policy-grid", gridProbe},
		{"scenario-churn", scenarioProbe},
		{"sparcsd-mixed", sdProbe},
	}
	for _, p := range probes {
		rs, err := p.run(cfg, tr, budget(p.name), p.name == cfg.workload, r)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.name, err)
		}
		if p.name == cfg.workload {
			r.set("trace.overhead_ratio", median(rs), "ratio")
			r.notes = append(r.notes, fmt.Sprintf("trace.overhead_ratio is the median of %d traced/untraced ratios", len(rs)))
		}
	}
	r.notes = append(r.notes, selfTimeTable(tr.rec.spans)...)
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.rec.write(path); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("%d spans written to %s", len(tr.rec.spans), path))
	return r, nil
}

// selfTimeTable renders total self time per span name, largest first.
func selfTimeTable(spans []Span) []string {
	lt := aggregate(spans)
	names := make([]string, 0, len(lt.self))
	for n := range lt.self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return total(lt.self, names[a]) > total(lt.self, names[b]) })
	out := []string{"self time by span (ms total over the traced ops):"}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-22s self %10.3f  incl %10.3f  ops %d", n, total(lt.self, n), total(lt.incl, n), len(lt.incl[n])))
	}
	return out
}

// fftProbe: build, sim and capture layers on fft-flow ops.
func fftProbe(cfg config, tr *tracer, budget time.Duration, twin bool, r *result) (ratios, error) {
	f, err := newFFTFixture(cfg)
	if err != nil {
		return nil, err
	}
	for i := range fftPolicies {
		if err := f.mirrorMatchesRun(i); err != nil {
			r.tally.add(failed("mirror-run", err))
		}
	}
	var rs ratios
	var offCycles int64
	start := time.Now()
	first := len(tr.rec.spans)
	for pass := 0; pass == 0 || (time.Since(start) < budget && time.Now().Before(cfg.deadline)); pass++ {
		for i := 0; i < fftPass(cfg); i++ {
			var o outcome
			dt, dp := twinRatio(twin, i, func() time.Duration {
				t0 := time.Now()
				check, replayMs := f.tracedOp(tr.rec, tr.next(), i)
				d := time.Since(t0) - time.Duration(replayMs*1e6)
				o = check()
				return d
			}, untraced(f.op, i, &r.tally))
			r.tally.add(o)
			offCycles += o.cycles
			rs.add(dt, dp)
		}
	}
	spans := tr.rec.spans[first:]
	lt := aggregate(spans)
	var capture []float64
	on, off := perOp(lt.incl, "sim.stage_capture"), perOp(lt.incl, "sim.stage")
	if len(on) != len(off) {
		return nil, fmt.Errorf("%d capture-on and %d capture-off traced ops", len(on), len(off))
	}
	for j := range on {
		capture = append(capture, on[j]-off[j])
	}
	r.set("core.compile_ms", median(perOp(lt.incl, "core.compile")), "ms")
	r.set("partition.temporal_ms", median(perOp(lt.incl, "partition.temporal")), "ms")
	r.set("partition.route_ms", median(perOp(lt.incl, "partition.route")), "ms")
	r.set("arbinsert.insert_ms", median(perOp(lt.incl, "arbinsert.insert")), "ms")
	r.set("sim.run_ms", median(off), "ms")
	r.set("sim.cycles_per_s", float64(offCycles)/(total(lt.incl, "sim.stage")/1e3), "cycles/s")
	r.set("sim.capture_ms", median(capture), "ms")
	r.set("workload.from_trace_ms", median(perOp(lt.incl, "workload.from_trace")), "ms")
	m, err := fftMemProbe(f)
	if err != nil {
		return nil, err
	}
	r.set("core.compile_kb", m.compileKB, "KB")
	r.set("core.compile_allocs", m.compileAllocs, "count")
	r.set("sim.stage_allocs", m.stageAllocs, "count")
	r.set("sim.capture_bytes_per_cycle", m.captureBytesPerCycle, "B/cycle")
	return rs, nil
}

type fftMem struct {
	compileKB, compileAllocs, stageAllocs, captureBytesPerCycle float64
}

// fftMemProbe reads the heap counters around the mirrored compile and
// around each stage with capture off and on, once per policy.
func fftMemProbe(f *fftFixture) (fftMem, error) {
	var m fftMem
	var a, b runtime.MemStats
	var compileBytes, compileMallocs, stageMallocs, offBytes, onBytes uint64
	var stages, cycles int
	for i := range fftPolicies {
		runtime.ReadMemStats(&a)
		d, err := mirrorCompile(nil, -1, 0)
		runtime.ReadMemStats(&b)
		if err != nil {
			return m, err
		}
		compileBytes += b.TotalAlloc - a.TotalAlloc
		compileMallocs += b.Mallocs - a.Mallocs
		for _, capture := range []bool{false, true} {
			opts, err := fftRunOpts(fftPolicies[i], capture)
			if err != nil {
				return m, err
			}
			mem := sparcs.NewMemory()
			sparcs.LoadFFTInput(mem, fftTiles, f.inSeeds[i])
			for si := range d.Stages {
				var st *sim.Stats
				runtime.ReadMemStats(&a)
				st, err = core.SimulateStage(d, si, mem, opts)
				runtime.ReadMemStats(&b)
				if err != nil {
					return m, err
				}
				if capture {
					onBytes += b.TotalAlloc - a.TotalAlloc
				} else {
					offBytes += b.TotalAlloc - a.TotalAlloc
					stageMallocs += b.Mallocs - a.Mallocs
					stages++
					cycles += st.Cycles
				}
			}
		}
	}
	n := float64(len(fftPolicies))
	m.compileKB = float64(compileBytes) / n / 1024
	m.compileAllocs = float64(compileMallocs) / n
	m.stageAllocs = float64(stageMallocs) / float64(stages)
	m.captureBytesPerCycle = (float64(onBytes) - float64(offBytes)) / float64(cycles)
	return m, nil
}

// gridProbe: workload Drive and the generator/arbiter kernels on
// policy-grid ops.
func gridProbe(cfg config, tr *tracer, budget time.Duration, twin bool, r *result) (ratios, error) {
	f, err := newGridFixture(cfg)
	if err != nil {
		return nil, err
	}
	// The sequential cell-by-cell mirror must reproduce EvaluatePolicies.
	for i := range gridNs {
		want, err := sparcs.EvaluatePolicies(gridPolicies, gridShapes, f.opts(i))
		if err != nil {
			return nil, err
		}
		_, got, _ := f.tracedOp(nil, -1, i, map[int]*gridKernelNs{})
		if !reflect.DeepEqual(got, want) {
			r.tally.add(failed("mirror-grid", fmt.Errorf("sequential Drive cells differ from EvaluatePolicies at N=%d", gridNs[i])))
		}
	}
	k := map[int]*gridKernelNs{}
	var rs ratios
	start := time.Now()
	for pass := 0; pass == 0 || (time.Since(start) < budget && time.Now().Before(cfg.deadline)); pass++ {
		for i := 0; i < gridPass(cfg); i++ {
			var o outcome
			dt, dp := twinRatio(twin, i, func() time.Duration {
				t0 := time.Now()
				check, _, replay := f.tracedOp(tr.rec, tr.next(), i, k)
				d := time.Since(t0) - replay
				o = check()
				return d
			}, untraced(f.op, i, &r.tally))
			r.tally.add(o)
			rs.add(dt, dp)
		}
	}
	for _, n := range gridNs {
		kn := k[n]
		if kn == nil {
			return nil, fmt.Errorf("no traced grid op at N=%d", n)
		}
		r.set(fmt.Sprintf("workload.drive_cycles_per_s.n%d", n), float64(kn.driveCycles)/(float64(kn.driveNs)/1e9), "cycles/s")
		if n == 6 || n == 64 {
			r.set(fmt.Sprintf("workload.gen_ns_per_cycle.n%d", n), float64(kn.genNs)/float64(kn.genCycles), "ns")
			r.set(fmt.Sprintf("arbiter.step_ns_per_cycle.n%d", n), float64(kn.stepNs)/float64(kn.stepCycles), "ns")
		}
	}
	return rs, nil
}

// scenarioProbe: the scenario engine on scenario-churn ops.
func scenarioProbe(cfg config, tr *tracer, budget time.Duration, twin bool, r *result) (ratios, error) {
	f, err := newScenarioFixture(cfg)
	if err != nil {
		return nil, err
	}
	var acc scenarioTrace
	var rs ratios
	start := time.Now()
	for pass := 0; pass == 0 || (time.Since(start) < budget && time.Now().Before(cfg.deadline)); pass++ {
		for i := 0; i < scenarioPass(cfg); i++ {
			var o outcome
			dt, dp := twinRatio(twin, i, func() time.Duration {
				t0 := time.Now()
				check := f.tracedOp(tr.rec, tr.next(), i, &acc)
				d := time.Since(t0)
				o = check()
				return d
			}, untraced(f.op, i, &r.tally))
			r.tally.add(o)
			rs.add(dt, dp)
		}
	}
	if acc.ops == 0 {
		return nil, fmt.Errorf("no scenario op completed")
	}
	n := float64(acc.ops)
	r.set("scenario.host_us_per_stage_run", float64(acc.hostNs)/float64(acc.stageRuns)/1e3, "us")
	r.set("scenario.host_ns_per_cycle", float64(acc.hostNs)/float64(acc.makespan), "ns")
	r.set("scenario.allocs_per_stage_run", float64(acc.mallocs)/float64(acc.stageRuns), "count")
	r.set("scenario.stall_fraction", acc.stall/n, "ratio")
	r.set("scenario.port_busy_fraction", acc.portBusy/n, "ratio")
	r.set("scenario.makespan_over_oracle", acc.overOracle/n, "ratio")
	r.set("scenario.queue_wait_p99_cycles", acc.queueP99/n, "cycles")
	r.set("scenario.place_fails", acc.placeFails/n, "count")
	r.set("scenario.compactions", acc.compaction/n, "count")
	r.set("scenario.oracle_violations", float64(acc.violations)/n, "ratio")
	return rs, nil
}

// okLatencies returns the open-loop latencies of the experiments that
// succeeded.
func okLatencies(f *sdFixture, s openStats, outs []outcome) []float64 {
	var lat []float64
	for i := range s.lat {
		if outs[i].err == nil && !f.open[i].sweep {
			lat = append(lat, s.lat[i])
		}
	}
	return lat
}

// sdReplay holds the per-request layer times of the sparcsd replay.
type sdReplay struct {
	decodeUs, hashUs, buildMs, runMs, encodeUs []float64
}

// sdProbe: the sparcsd request path — /v1/stats deltas over a traced
// open loop, then a replay of the same requests through the functions
// the handler calls. As the twin, the untraced open loop of the
// workload first serves the same requests on a fresh server.
func sdProbe(cfg config, tr *tracer, budget time.Duration, twin bool, r *result) (ratios, error) {
	c := cfg
	openShare := 0.6
	if twin {
		openShare = 0.3
	}
	c.seconds = budget.Seconds() * openShare / sdOpenShare
	var plain []float64
	if twin {
		g, err := newSDFixture(c)
		if err != nil {
			return nil, err
		}
		u := g.openLoop(g.open, g.due, nil, 0)
		plain = okLatencies(g, u, g.checkOpen(u, &r.tally))
		g.close()
	}
	f, err := newSDFixture(c)
	if err != nil {
		return nil, err
	}
	defer f.close()
	st0, err := f.stats()
	if err != nil {
		return nil, err
	}
	base := tr.ops + 1
	tr.ops += len(f.open)
	s := f.openLoop(f.open, f.due, tr.rec, base)
	st1, err := f.stats()
	if err != nil {
		return nil, err
	}
	outs := f.checkOpen(s, &r.tally)
	var rs ratios
	if twin {
		rs = ratios{median(okLatencies(f, s, outs)) / median(plain)}
	}
	per1k := func(d int64) float64 { return float64(d) / float64(len(f.open)) * 1000 }
	hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
	r.set("service.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	r.set("service.compiles", per1k(st1.Compiles-st0.Compiles), "count/1k")
	r.set("service.evictions", per1k(st1.CacheEvictions-st0.CacheEvictions), "count/1k")
	r.set("service.rejected", per1k(st1.RejectedFull-st0.RejectedFull), "count/1k")
	// /v1/stats reports these as whole-millisecond log2 bucket edges,
	// which read the same on most runs: printed, not reported.
	for _, class := range []string{"interactive", "batch"} {
		slo := st1.Classes[class]
		r.show("service.admit_wait_ms_p99."+class, float64(slo.WaitP99Ms), "ms")
		r.show("service.service_ms_p99."+class, float64(slo.ServiceP99Ms), "ms")
	}
	_, lateP99, _ := s.late.quantiles()
	r.set("loadgen.late_ms_p99", lateP99, "ms")

	// Replay the served requests through the handler's functions.
	var acc sdReplay
	systems := map[string]*sparcs.System{}
	start := time.Now()
	replayBudget := budget * 4 / 10
	n := 0
	for i := range f.open {
		if i >= 50 && time.Since(start) > replayBudget {
			break
		}
		if outs[i].err != nil {
			continue
		}
		o := f.replay(tr, i, s.resp[i], systems, &acc)
		r.tally.add(o)
		n++
	}
	r.notes = append(r.notes, fmt.Sprintf("sparcsd replay: %d requests, %d builds", n, len(acc.buildMs)))
	r.set("service.decode_us", median(acc.decodeUs), "us")
	r.set("sparcs.design_hash_us", median(acc.hashUs), "us")
	r.set("sparcs.build_ms", median(acc.buildMs), "ms")
	r.set("sparcs.run_ms", median(acc.runMs), "ms")
	r.set("service.encode_us", median(acc.encodeUs), "us")
	return rs, nil
}

// replay re-executes open-loop request i: decode, design hash, build on
// a replay-cache miss, run, encode. The hash and the body must equal the
// served ones.
func (f *sdFixture) replay(tr *tracer, i int, served sdResponse, systems map[string]*sparcs.System, acc *sdReplay) outcome {
	req := &f.open[i]
	op := tr.next()
	rec := tr.rec
	root := rec.begin("sparcsd.replay", -1, op)
	defer rec.end(root)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var exp service.ExperimentRequest
	var sw service.SweepRequest
	var err error
	acc.decodeUs = append(acc.decodeUs, us(rec.span("service.decode", root, op, func() {
		if req.sweep {
			err = json.Unmarshal(req.body, &sw)
		} else {
			err = json.Unmarshal(req.body, &exp)
		}
	})))
	if err != nil {
		return failed("replay-decode", err)
	}
	k := designKey{tiles: exp.Tiles, apg: exp.Build.AccessesPerGrant, conservative: exp.Build.Conservative}
	if req.sweep {
		k = designKey{tiles: sw.Tiles, apg: sw.Build.AccessesPerGrant, conservative: sw.Build.Conservative}
	}
	var hash string
	g, board, programs, bopts := designInputs(k)
	acc.hashUs = append(acc.hashUs, us(rec.span("sparcs.design_hash", root, op, func() {
		hash, err = sparcs.DesignHash(g, board, programs, bopts...)
	})))
	if err != nil {
		return failed("replay-hash", err)
	}
	if hash != served.hash {
		return failed("design-hash", fmt.Errorf("request %d: replayed DesignHash %s, served %s", i, hash, served.hash))
	}
	sys := systems[hash]
	if sys == nil {
		acc.buildMs = append(acc.buildMs, ms(rec.span("sparcs.build", root, op, func() {
			sys, err = sparcs.Build(g, board, programs, bopts...)
		})))
		if err != nil {
			return failed("replay-build", err)
		}
		systems[hash] = sys
	}
	var body []byte
	if !req.sweep {
		var res *sparcs.Result
		acc.runMs = append(acc.runMs, ms(rec.span("sparcs.run", root, op, func() { res, err = sys.Run(runOptions(exp.Run)...) })))
		if err != nil {
			return failed("replay-run", err)
		}
		acc.encodeUs = append(acc.encodeUs, us(rec.span("service.encode", root, op, func() { body, err = service.EncodeResult(res) })))
	} else {
		experiments := make([][]sparcs.RunOption, len(sw.Experiments))
		for j, rs := range sw.Experiments {
			experiments[j] = runOptions(rs)
		}
		var results []*sparcs.Result
		acc.runMs = append(acc.runMs, ms(rec.span("sparcs.run", root, op, func() { results, err = sys.Sweep(experiments...) })))
		if err != nil {
			return failed("replay-run", err)
		}
		acc.encodeUs = append(acc.encodeUs, us(rec.span("service.encode", root, op, func() { body, err = encodeSweep(results) })))
	}
	if err != nil {
		return failed("replay-encode", err)
	}
	if !bytes.Equal(body, served.body) {
		return failed("replay-body", fmt.Errorf("request %d: replayed body differs from the served one", i))
	}
	return outcome{}
}

// encodeSweep mirrors the sweep handler's response encoding.
func encodeSweep(results []*sparcs.Result) ([]byte, error) {
	resp := service.SweepResponse{Results: make([]json.RawMessage, len(results))}
	for i, res := range results {
		body, err := service.EncodeResult(res)
		if err != nil {
			return nil, err
		}
		resp.Results[i] = json.RawMessage(body[:len(body)-1])
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}
