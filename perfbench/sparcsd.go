package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sparcs"
	"sparcs/internal/fft"
	"sparcs/internal/rc"
	"sparcs/internal/service"
	"sparcs/internal/taskgraph"
)

// sparcsd-mixed: an in-process sparcsd (service.New, 2 workers, a CLB
// cache budget of about eight FFT footprints) behind an httptest loopback
// server. An open loop at a fixed rate from a seeded schedule, then a
// short closed-loop capacity phase with 2 clients. The mix: ~85%
// experiments on 2 hot designs, ~10% on a 96-design long tail (misses,
// compiles, LRU evictions), ~5% batch-class sweeps of 8 experiments.

const (
	// sdRate is the open loop's fixed arrival rate, a quarter to a
	// sixth of the capacity phase's throughput at the baseline, so that
	// the host slowing for a while does not build a backlog (README.md).
	sdRate = 150.0
	// sdSLO is the latency limit of slo_miss_ratio, about 5× a cold
	// compile.
	sdSLO = 20 * time.Millisecond
	// sdOpenShare is the open loop's share of the measured seconds; the
	// capacity phase gets the rest.
	sdOpenShare = 0.6
	// sdCheckEvery samples every n-th experiment for the byte-identity
	// check against service.OfflineResult (every sweep is checked at
	// sdCheckEvery/2).
	sdCheckEvery = 16
	// sdFootprintCLBs is the FFT design's compiled CLB footprint; the
	// cache budget holds eight of them.
	sdFootprintCLBs = 1929
	sdClients       = 2
)

var (
	// Hot run shapes. M1=hog/1 starves the FFT tasks under every policy
	// but preemptive:4 and wrr:2 (the run hits the 10M-cycle stage
	// watchdog), so hog appears only under those two.
	sdPolicies = []string{"rr", "fifo", "priority", "random:1", "wrr:2", "preemptive:4", "hier:2"}
	sdShapes   = []string{"", "M1=bernoulli:0.2", "M1=bernoulli:0.5", "M1=hotspot:0.5", "M1=bursty", "M1=markov"}
	sdHogOK    = map[string]bool{"wrr:2": true, "preemptive:4": true}
	sdHot      = []designKey{{tiles: 6}, {tiles: 4, apg: 2}}
)

type designKey struct {
	tiles, apg   int
	conservative bool
}

func (k designKey) build() service.BuildSpec {
	return service.BuildSpec{AccessesPerGrant: k.apg, Conservative: k.conservative}
}

// designInputs mirrors the service's resolution of an fft design
// reference into Build inputs; the hash-equality check guards it.
func designInputs(k designKey) (*taskgraph.Graph, *rc.Board, map[string]sparcs.Program, []sparcs.BuildOption) {
	opts := []sparcs.BuildOption{sparcs.WithStages(fft.PaperStages())}
	if k.apg > 0 {
		opts = append(opts, sparcs.WithAccessesPerGrant(k.apg))
	}
	if k.conservative {
		opts = append(opts, sparcs.WithConservativeArbitration())
	}
	return fft.Taskgraph(), rc.Wildforce(), fft.Programs(k.tiles), opts
}

// runOptions mirrors the service's RunSpec → RunOption conversion.
func runOptions(r service.RunSpec) []sparcs.RunOption {
	var opts []sparcs.RunOption
	if r.Policy != "" {
		opts = append(opts, sparcs.WithPolicy(r.Policy))
	}
	if r.Contention != "" {
		opts = append(opts, sparcs.WithContention(r.Contention))
	}
	if r.Seed != 0 {
		opts = append(opts, sparcs.WithSeed(r.Seed))
	}
	if r.MaxCycles != 0 {
		opts = append(opts, sparcs.WithMaxCycles(r.MaxCycles))
	}
	return opts
}

// sdRequest is one scheduled request.
type sdRequest struct {
	sweep bool
	key   designKey
	body  []byte
	hash  string // the DesignHash the response header must carry
	exp   service.ExperimentRequest
	sw    service.SweepRequest
}

func (r *sdRequest) path() string {
	if r.sweep {
		return "/v1/sweeps"
	}
	return "/v1/experiments"
}

// sdSchedule generates n requests of the mix from rng, hashing each
// design once. The mix is stratified — exactly 85% hot experiments, 10%
// long-tail experiments and 5% sweeps, in seeded random order, with the
// tail designs drawn in seeded rounds over all 96 — so seeds differ in
// order and detail, not in how much slow work they carry.
func sdSchedule(rng *rand.Rand, n int, hashes map[designKey]string) ([]sdRequest, error) {
	hotRun := func() service.RunSpec {
		pol := sdPolicies[rng.IntN(len(sdPolicies))]
		shapes := sdShapes
		if sdHogOK[pol] {
			shapes = append(shapes[:len(shapes):len(shapes)], "M1=hog/1")
		}
		return service.RunSpec{Policy: pol, Contention: shapes[rng.IntN(len(shapes))], Seed: 1 + uint64(rng.IntN(8))}
	}
	const hot, tail, sweep = 0, 1, 2
	kinds := make([]int, n)
	nTail, nSweep := n/10, n/20
	for i := range kinds {
		switch {
		case i < nTail:
			kinds[i] = tail
		case i < nTail+nSweep:
			kinds[i] = sweep
		}
	}
	rng.Shuffle(n, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	var tails []designKey
	out := make([]sdRequest, n)
	for i := range out {
		r := &out[i]
		switch kinds[i] {
		case hot:
			r.key = sdHot[rng.IntN(len(sdHot))]
			r.exp = service.ExperimentRequest{Design: "fft", Tiles: r.key.tiles, Build: r.key.build(), Run: hotRun()}
		case tail:
			if len(tails) == 0 {
				tails = sdTailRound(rng)
			}
			r.key, tails = tails[0], tails[1:]
			r.exp = service.ExperimentRequest{Design: "fft", Tiles: r.key.tiles, Build: r.key.build()}
		case sweep:
			r.sweep = true
			r.key = sdHot[rng.IntN(len(sdHot))]
			r.sw = service.SweepRequest{Design: "fft", Tiles: r.key.tiles, Build: r.key.build(), Class: "batch"}
			for j := 0; j < 8; j++ {
				r.sw.Experiments = append(r.sw.Experiments, hotRun())
			}
		}
		var err error
		if r.sweep {
			r.body, err = json.Marshal(r.sw)
		} else {
			r.body, err = json.Marshal(r.exp)
		}
		if err != nil {
			return nil, err
		}
		h, ok := hashes[r.key]
		if !ok {
			g, board, programs, opts := designInputs(r.key)
			if h, err = sparcs.DesignHash(g, board, programs, opts...); err != nil {
				return nil, err
			}
			hashes[r.key] = h
		}
		r.hash = h
	}
	return out, nil
}

// sdTailRound is the 96-design long tail (tiles 1–12 × accessesPerGrant
// 1–4 × conservative) in seeded random order.
func sdTailRound(rng *rand.Rand) []designKey {
	var ks []designKey
	for t := 1; t <= 12; t++ {
		for apg := 1; apg <= 4; apg++ {
			ks = append(ks, designKey{t, apg, false}, designKey{t, apg, true})
		}
	}
	rng.Shuffle(len(ks), func(a, b int) { ks[a], ks[b] = ks[b], ks[a] })
	return ks
}

// sdFixture is one server plus its schedules.
type sdFixture struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	open   []sdRequest
	due    []time.Duration
	capReq []sdRequest
	// offline memoizes service.OfflineResult bodies by request body.
	offline map[string][]byte
}

func sdOpenCount(cfg config) int {
	if cfg.smoke {
		return 40
	}
	return int(math.Ceil(sdRate * cfg.seconds * sdOpenShare))
}

// capPass is the capacity phase's request list length.
func capPass(cfg config) int {
	if cfg.smoke {
		return 40
	}
	return 200
}

func newSDFixture(cfg config) (*sdFixture, error) {
	srv, err := service.New(service.Config{Workers: 2, CacheBudgetCLBs: 8 * sdFootprintCLBs})
	if err != nil {
		return nil, err
	}
	f := &sdFixture{srv: srv, ts: httptest.NewServer(srv.Handler()), offline: map[string][]byte{}}
	f.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: sdClients, MaxIdleConnsPerHost: sdClients}}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x5ba7c5d))
	hashes := map[designKey]string{}
	n := sdOpenCount(cfg)
	if f.open, err = sdSchedule(rng, n, hashes); err != nil {
		f.close()
		return nil, err
	}
	// Constant-rate pacing: request i is due at i/sdRate.
	for i := 0; i < n; i++ {
		f.due = append(f.due, time.Duration(float64(i)/sdRate*float64(time.Second)))
	}
	if f.capReq, err = sdSchedule(rng, capPass(cfg), hashes); err != nil {
		f.close()
		return nil, err
	}
	// Warm the hot designs: compile them into the cache.
	for _, k := range sdHot {
		r := sdRequest{key: k, hash: hashes[k], exp: service.ExperimentRequest{Design: "fft", Tiles: k.tiles, Build: k.build()}}
		r.body, _ = json.Marshal(r.exp)
		if res := f.do(&r); res.err != nil {
			f.close()
			return nil, fmt.Errorf("sparcsd warm-up: %w", res.err)
		}
	}
	return f, nil
}

func (f *sdFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = f.srv.Drain(ctx) // an expired drain leaves nothing running once the listener closes
	f.ts.Close()
	f.client.CloseIdleConnections()
}

// sdResponse is one completed request.
type sdResponse struct {
	hash string
	body []byte
	err  error // a transport error or a non-200 status
}

func (f *sdFixture) do(r *sdRequest) sdResponse {
	resp, err := f.client.Post(f.ts.URL+r.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		return sdResponse{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	out := sdResponse{hash: resp.Header.Get("X-Sparcsd-Design-Hash"), body: body, err: err}
	if err == nil && resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return out
}

func (f *sdFixture) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := f.client.Get(f.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// openStats is one open-loop phase.
type openStats struct {
	resp    []sdResponse
	lat     latencies // from each request's due time
	late    latencies // send time minus due time
	elapsed time.Duration
}

// openLoop sends reqs[i] at start+due[i] from sdClients goroutines. A
// request is timed from its due time, so a stall counts against every
// request it delays. With rec set, each request is recorded as a span
// with op id base+i.
func (f *sdFixture) openLoop(reqs []sdRequest, due []time.Duration, rec *recorder, base int) openStats {
	n := len(reqs)
	s := openStats{resp: make([]sdResponse, n)}
	lat := make([]time.Duration, n)
	late := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < sdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				late[i] = time.Since(at)
				if rec != nil {
					id := rec.begin("http.request", -1, base+i)
					s.resp[i] = f.do(&reqs[i])
					rec.end(id)
				} else {
					s.resp[i] = f.do(&reqs[i])
				}
				lat[i] = time.Since(at)
			}
		}()
	}
	wg.Wait()
	s.elapsed = time.Since(start)
	for i := range lat {
		s.lat.add(lat[i])
		s.late.add(late[i])
	}
	return s
}

// capacity runs the closed-loop capacity phase: sdClients clients take
// requests from a fixed list of capPass requests (the same work every
// pass), each sending its next request when the previous one completes,
// pass after pass until budget, with between run after each pass,
// untimed. It returns the median over passes of requests and served
// simulated cycles per second.
func (f *sdFixture) capacity(budget time.Duration, t *tally, between func()) (opsPerS, cyclesPerS float64, passes int) {
	var perS, cycPerS []float64
	start := time.Now()
	for passes == 0 || time.Since(start) < budget {
		res := make([]sdResponse, len(f.capReq))
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < sdClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(res); i = int(next.Add(1) - 1) {
					res[i] = f.do(&f.capReq[i])
				}
			}()
		}
		wg.Wait()
		el := time.Since(t0).Seconds()
		var cycles float64
		for i := range res {
			o := checkServed(&f.capReq[i], res[i])
			t.add(o)
			cycles += float64(o.cycles)
		}
		perS = append(perS, float64(len(res))/el)
		cycPerS = append(cycPerS, cycles/el)
		passes++
		between()
	}
	return median(perS), median(cycPerS), passes
}

// servedCycles sums TotalCycles over a response body (an experiment, or
// every result of a sweep).
func servedCycles(sweep bool, body []byte) (int64, error) {
	type exp struct {
		TotalCycles int64 `json:"totalCycles"`
	}
	if !sweep {
		var e exp
		err := json.Unmarshal(body, &e)
		return e.TotalCycles, err
	}
	var sw struct {
		Results []exp   `json:"results"`
		Error   *string `json:"error"`
	}
	if err := json.Unmarshal(body, &sw); err != nil {
		return 0, err
	}
	var c int64
	for _, e := range sw.Results {
		c += e.TotalCycles
	}
	return c, nil
}

// checkServed checks status and the design-hash header, and parses the
// served cycles.
func checkServed(r *sdRequest, res sdResponse) outcome {
	if res.err != nil {
		return failed("http", res.err)
	}
	if res.hash != r.hash {
		return failed("design-hash", fmt.Errorf("served hash %s, replayed DesignHash %s", res.hash, r.hash))
	}
	c, err := servedCycles(r.sweep, res.body)
	if err != nil {
		return failed("decode", err)
	}
	return outcome{cycles: c, model: float64(c)}
}

// offlineBody returns service.OfflineResult's body for an experiment,
// memoized by request body.
func (f *sdFixture) offlineBody(req service.ExperimentRequest) ([]byte, string, error) {
	key, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	if b, ok := f.offline[string(key)]; ok {
		return b, "", nil
	}
	body, hash, err := service.OfflineResult(req)
	if err != nil {
		return nil, "", err
	}
	f.offline[string(key)] = body
	return body, hash, nil
}

// checkOffline compares a served body with service.OfflineResult.
func (f *sdFixture) checkOffline(r *sdRequest, body []byte) error {
	if !r.sweep {
		want, hash, err := f.offlineBody(r.exp)
		if err != nil {
			return err
		}
		if hash != "" && hash != r.hash {
			return fmt.Errorf("offline hash %s, served %s", hash, r.hash)
		}
		if !bytes.Equal(body, want) {
			return fmt.Errorf("served body differs from service.OfflineResult")
		}
		return nil
	}
	var resp service.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Error != nil || len(resp.Results) != len(r.sw.Experiments) {
		return fmt.Errorf("sweep returned %d results, error %v", len(resp.Results), resp.Error)
	}
	for j, rs := range r.sw.Experiments {
		want, _, err := f.offlineBody(service.ExperimentRequest{Design: r.sw.Design, Tiles: r.sw.Tiles, Build: r.sw.Build, Run: rs})
		if err != nil {
			return err
		}
		if !bytes.Equal(append([]byte(resp.Results[j]), '\n'), want) {
			return fmt.Errorf("sweep result %d differs from service.OfflineResult", j)
		}
	}
	return nil
}

// checkOpen checks every open-loop response and returns the outcome per
// request.
func (f *sdFixture) checkOpen(s openStats, t *tally) []outcome {
	outs := make([]outcome, len(s.resp))
	for i, res := range s.resp {
		r := &f.open[i]
		o := checkServed(r, res)
		every := sdCheckEvery
		if r.sweep {
			every /= 2
		}
		if o.err == nil && i%every == 0 {
			if err := f.checkOffline(r, res.body); err != nil {
				o = failed("offline-identity", err)
			}
		}
		outs[i] = o
		t.add(o)
	}
	return outs
}

func runSparcsdMixed(cfg config) (*result, error) {
	capBudget := seconds(cfg.seconds * (1 - sdOpenShare))
	if cfg.smoke {
		capBudget = 200 * time.Millisecond
	}
	// The open loop keeps its schedule only if nothing else runs, so the
	// set-ups after the first are timed between the capacity passes.
	st := newSetupTimer(cfg, capBudget, func() (*sdFixture, error) { return newSDFixture(cfg) }, (*sdFixture).close)
	f, err := st.run()
	if err != nil {
		return nil, err
	}
	defer f.close()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	s := f.openLoop(f.open, f.due, nil, 0)
	runtime.ReadMemStats(&b)
	var t tally
	outs := f.checkOpen(s, &t)
	capOpsPerS, capCyclesPerS, capPasses := f.capacity(capBudget, &t, st.again)
	if st.err != nil {
		return nil, st.err
	}

	r := &result{tally: t}
	w := summarizeWindows(s.lat, make([]float64, len(s.lat)))
	var model float64
	var served, sloMiss int
	for i, o := range outs {
		if o.err != nil || s.lat[i] > ms(sdSLO) {
			sloMiss++
		}
		if o.err == nil && !f.open[i].sweep {
			model += o.model
			served++
		}
	}
	n := len(s.resp)
	r.set("setup_s", median(st.ds), "s")
	r.set("op_ms_p50", w.p50, "ms")
	r.set("ops_per_s", capOpsPerS, "1/s")
	r.set("sim_cycles_per_s", capCyclesPerS, "cycles/s")
	r.set("alloc_mb_per_op", float64(b.TotalAlloc-a.TotalAlloc)/float64(n)/1e6, "MB")
	r.set("allocs_per_op", float64(b.Mallocs-a.Mallocs)/float64(n), "count")
	r.set("model_cycles", model/float64(max(served, 1)), "cycles")
	_, lateP99, _ := s.late.quantiles()
	r.show("op_ms_p99", w.p99, "ms")
	r.show("slo_miss_ratio", ratio(sloMiss, n), "ratio")
	r.notes = append(r.notes,
		samplesNote(n, w),
		fmt.Sprintf("open loop %d requests at %.0f/s in %.2fs; capacity phase %d passes of %d requests", n, sdRate, s.elapsed.Seconds(), capPasses, len(f.capReq)),
		fmt.Sprintf("slo limit %v; load generator late p99 %.3f ms", sdSLO, lateP99))
	r.notes = append(r.notes, st.notes()...)
	return r, nil
}
