// Package workload is a deterministic synthetic request-traffic engine
// for exercising arbitration policies standalone, outside the full
// system simulator: it drives any arbiter.Policy at millions of cycles
// per second on single request/grant words, under traffic shapes
// the paper's single FFT case study never produces — uniform Bernoulli
// arrivals, bursty on/off sources, hotspot skew, Markov-modulated load
// regimes, an adversarial hog, and recorded-trace replay.
//
// Generators are closed-loop: each cycle they observe the previous
// cycle's grants, so a task requests persistently until its job has
// been served for its hold time and then releases — the request/release
// discipline of the paper's Figure 8 access protocol. All randomness
// comes from a seeded splitmix64 stream, so a (generator, seed, policy)
// triple always replays the identical experiment.
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"sparcs/internal/arbiter"
)

// Generator produces one request word per cycle. Implementations must
// be deterministic: Reset followed by the same grant feedback replays
// the identical request stream. OnResource attaches any generator to a
// simulation as single-resource background contention.
type Generator interface {
	BitGenerator
	// Name identifies the shape with its parameters ("bernoulli:0.30").
	Name() string
	// N returns the number of request lines.
	N() int
	// Reset returns the generator to its initial state, including the
	// random stream.
	Reset()
}

// BitGenerator is the per-cycle contract of Generator: NextBits returns
// the request word for the coming cycle (bit i = line i) after observing
// prevGrant, the grants the arbiter issued last cycle (zero on the first
// call). Bits at or above N() must be clear.
type BitGenerator interface {
	NextBits(prevGrant arbiter.BitVec) arbiter.BitVec
}

// rng is a splitmix64 pseudo-random stream: tiny, allocation-free, and
// fully determined by its seed.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance returns true with probability p.
func (r *rng) chance(p float64) bool {
	return float64(r.next()>>11)*(1.0/(1<<53)) < p
}

// taskStreams derives one independent rng stream per task from the
// generator seed. Closed-loop generators draw from task i's stream a
// fixed number of times per cycle regardless of grant feedback, so the
// arrival process (which jobs spawn at which cycles) is bitwise
// identical no matter which policy is being driven — rows of a grid
// column compare service discipline, not different traffic.
func taskStreams(seed uint64, n int) []rng {
	streams := make([]rng, n)
	for i := range streams {
		streams[i] = rng{state: seed + uint64(i+1)*0x9e3779b97f4a7c15}
	}
	return streams
}

// jobs is the shared closed-loop core: need[i] is the number of granted
// cycles task i's outstanding job still requires (0 = idle). A task
// requests while need > 0 and consumes one unit per granted cycle.
type jobs struct {
	need []int
	hold int
}

func newJobs(n, hold int) jobs { return jobs{need: make([]int, n), hold: hold} }

// serve consumes grant feedback for task i, returning true if the task
// is now idle.
func (j *jobs) serve(i int, granted bool) bool {
	if j.need[i] > 0 && granted {
		j.need[i]--
	}
	return j.need[i] == 0
}

func (j *jobs) reset() {
	for i := range j.need {
		j.need[i] = 0
	}
}

// bernoulli is the uniform/hotspot/hog family: per-task arrival
// probability when idle, with optional always-requesting (pinned)
// tasks. A job occupies the resource for hold granted cycles.
type bernoulli struct {
	name    string
	n       int
	seed    uint64
	streams []rng
	p       []float64
	pin     []bool
	jobs    jobs
}

func (b *bernoulli) Name() string { return b.name }
func (b *bernoulli) N() int       { return b.n }

func (b *bernoulli) Reset() {
	b.streams = taskStreams(b.seed, b.n)
	b.jobs.reset()
}

// NextBits implements Generator: one draw per task per cycle, assembled
// into one request word.
//
//sparcs:hotpath
func (b *bernoulli) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	var req arbiter.BitVec
	for i := 0; i < b.n; i++ {
		// One draw per task per cycle, consumed unconditionally, so the
		// arrival stream is independent of grant history.
		arrive := b.streams[i].chance(b.p[i])
		if b.pin != nil && b.pin[i] {
			req |= 1 << uint(i)
			continue
		}
		if b.jobs.serve(i, prevGrant.Bit(i)) && arrive {
			b.jobs.need[i] = b.jobs.hold
		}
		if b.jobs.need[i] > 0 {
			req |= 1 << uint(i)
		}
	}
	return req
}

// NewBernoulli returns uniform Bernoulli traffic: every idle task
// starts a hold-cycle job with probability p each cycle.
func NewBernoulli(n int, p float64, hold int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	if err := checkRate("bernoulli", p); err != nil {
		return nil, err
	}
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = p
	}
	return &bernoulli{
		name: fmt.Sprintf("bernoulli:%.2f", p),
		n:    n, seed: seed, streams: taskStreams(seed, n), p: ps, jobs: newJobs(n, hold),
	}, nil
}

// NewHotspot returns skewed traffic: task 1 arrives with probability
// pHot, every other task with pHot/8 — the single-popular-resource
// contention pattern.
func NewHotspot(n int, pHot float64, hold int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	if err := checkRate("hotspot", pHot); err != nil {
		return nil, err
	}
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = pHot / 8
	}
	ps[0] = pHot
	return &bernoulli{
		name: fmt.Sprintf("hotspot:%.2f", pHot),
		n:    n, seed: seed, streams: taskStreams(seed, n), p: ps, jobs: newJobs(n, hold),
	}, nil
}

// NewHog returns adversarial traffic: task 1 requests every cycle and
// never releases, while the remaining tasks offer moderate Bernoulli
// load. Non-preemptive policies let the hog starve everyone once
// granted; preemptive and weighted policies bound its hold.
func NewHog(n int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 0.25
	}
	pin := make([]bool, n)
	pin[0] = true
	return &bernoulli{
		name: "hog",
		n:    n, seed: seed, streams: taskStreams(seed, n), p: ps, pin: pin, jobs: newJobs(n, 2),
	}, nil
}

// bursty is the per-task on/off source: each task flips between an ON
// state (high arrival rate) and an OFF state (silent) with geometric
// dwell times.
type bursty struct {
	n       int
	seed    uint64
	streams []rng
	on      []bool
	pOffOn  float64 // per-cycle chance an OFF task turns ON  (mean idle 1/p)
	pOnOff  float64 // per-cycle chance an ON task turns OFF  (mean burst 1/p)
	pArrive float64 // arrival probability while ON
	jobs    jobs
}

// NewBursty returns on/off burst traffic: mean bursts of 20 cycles at
// 0.9 arrival probability separated by mean 60-cycle silences.
func NewBursty(n int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	return &bursty{
		n: n, seed: seed, streams: taskStreams(seed, n),
		on:     make([]bool, n),
		pOffOn: 1.0 / 60, pOnOff: 1.0 / 20, pArrive: 0.9,
		jobs: newJobs(n, 2),
	}, nil
}

func (b *bursty) Name() string { return "bursty" }
func (b *bursty) N() int       { return b.n }

func (b *bursty) Reset() {
	b.streams = taskStreams(b.seed, b.n)
	for i := range b.on {
		b.on[i] = false
	}
	b.jobs.reset()
}

// NextBits implements Generator.
//
//sparcs:hotpath
func (b *bursty) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	var req arbiter.BitVec
	for i := 0; i < b.n; i++ {
		// Two draws per task per cycle (state flip, arrival), consumed
		// unconditionally: the on/off trajectory and arrival stream are
		// independent of grant history.
		flip := b.streams[i].next()
		arrive := b.streams[i].chance(b.pArrive)
		if b.on[i] {
			if float64(flip>>11)*(1.0/(1<<53)) < b.pOnOff {
				b.on[i] = false
			}
		} else if float64(flip>>11)*(1.0/(1<<53)) < b.pOffOn {
			b.on[i] = true
		}
		if b.jobs.serve(i, prevGrant.Bit(i)) && b.on[i] && arrive {
			b.jobs.need[i] = b.jobs.hold
		}
		if b.jobs.need[i] > 0 {
			req |= 1 << uint(i)
		}
	}
	return req
}

// markov is the globally modulated source: a two-state regime chain
// (calm/storm) scales every task's arrival probability together, so the
// whole system alternates between light load and saturation.
type markov struct {
	n          int
	seed       uint64
	regime     rng
	streams    []rng
	storm      bool
	pCalmStorm float64
	pStormCalm float64
	pCalm      float64
	pStorm     float64
	jobs       jobs
}

// NewMarkov returns Markov-modulated traffic: calm regimes (arrival
// 0.05) punctuated by storms (arrival 0.85) with mean lengths 200 and
// 50 cycles.
func NewMarkov(n int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	return &markov{
		n: n, seed: seed, regime: rng{state: seed}, streams: taskStreams(seed, n),
		pCalmStorm: 1.0 / 200, pStormCalm: 1.0 / 50,
		pCalm: 0.05, pStorm: 0.85,
		jobs: newJobs(n, 2),
	}, nil
}

func (m *markov) Name() string { return "markov" }
func (m *markov) N() int       { return m.n }

func (m *markov) Reset() {
	m.regime = rng{state: m.seed}
	m.streams = taskStreams(m.seed, m.n)
	m.storm = false
	m.jobs.reset()
}

// NextBits implements Generator.
//
//sparcs:hotpath
func (m *markov) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	// The regime chain and per-task arrival draws advance every cycle
	// regardless of grant feedback, keeping the offered traffic
	// identical across policies.
	if m.storm {
		if m.regime.chance(m.pStormCalm) {
			m.storm = false
		}
	} else if m.regime.chance(m.pCalmStorm) {
		m.storm = true
	}
	p := m.pCalm
	if m.storm {
		p = m.pStorm
	}
	var req arbiter.BitVec
	for i := 0; i < m.n; i++ {
		arrive := m.streams[i].chance(p)
		if m.jobs.serve(i, prevGrant.Bit(i)) && arrive {
			m.jobs.need[i] = m.jobs.hold
		}
		if m.jobs.need[i] > 0 {
			req |= 1 << uint(i)
		}
	}
	return req
}

// silent is the zero-rate source: it never requests. Its Silent marker
// lets sim.Run elide it entirely (the contention no-op path), so a
// simulation configured with silent background sources is byte-identical
// to an uninstrumented one under every policy.
type silent struct{ n int }

// NewSilent returns the zero-rate generator: n lines that never
// request. It implements sim.StaticallySilent.
func NewSilent(n int) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	return &silent{n: n}, nil
}

func (s *silent) Name() string { return "silent" }
func (s *silent) N() int       { return s.n }
func (s *silent) Reset()       {}

// Silent marks the generator as statically request-free.
func (s *silent) Silent() bool { return true }

// NextBits implements Generator.
//
//sparcs:hotpath
func (s *silent) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec { return 0 }

// trace replays a recorded request pattern cyclically — the open-loop
// shape: requests do not react to grants, exactly as captured. Steps
// are packed into BitVec words at construction, so replay is one word
// load per cycle.
type trace struct {
	name  string
	n     int
	steps []arbiter.BitVec
	pos   int
}

// NewTrace returns a generator replaying steps cyclically. Every step
// must have exactly n request lines.
func NewTrace(name string, n int, steps [][]bool) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("workload: trace %q has no steps", name)
	}
	packed := make([]arbiter.BitVec, len(steps))
	for c, s := range steps {
		if len(s) != n {
			return nil, fmt.Errorf("workload: trace %q step %d has %d lines, want %d", name, c, len(s), n)
		}
		packed[c] = arbiter.PackBools(s)
	}
	return &trace{name: name, n: n, steps: packed}, nil
}

func (t *trace) Name() string { return t.name }
func (t *trace) N() int       { return t.n }
func (t *trace) Reset()       { t.pos = 0 }

// NextBits implements Generator.
//
//sparcs:hotpath
func (t *trace) NextBits(prevGrant arbiter.BitVec) arbiter.BitVec {
	step := t.steps[t.pos]
	t.pos++
	if t.pos == len(t.steps) {
		t.pos = 0
	}
	return step
}

// builtinTrace builds the canonical recorded pattern the registry
// serves under "trace": staggered request windows (task i active for n
// cycles starting at cycle 2i), then an all-on contention burst, then
// silence — arrivals, overlap, saturation, and drain in one period.
func builtinTrace(n int) [][]bool {
	period := 4*n + 2*n + n // staggered windows, burst, silence
	steps := make([][]bool, period)
	for c := range steps {
		row := make([]bool, n)
		for i := 0; i < n; i++ {
			start := 2 * i
			switch {
			case c >= start && c < start+n:
				row[i] = true
			case c >= 4*n && c < 6*n:
				row[i] = true
			}
		}
		steps[c] = row
	}
	return steps
}

func checkRate(shape string, p float64) error {
	if p <= 0 || p > 1 {
		return fmt.Errorf("workload: %s rate must be in (0,1], got %g", shape, p)
	}
	return nil
}

// checkN bounds generator widths to one request word: the whole engine
// — generators, Drive, the simulator's contention lanes — packs request
// vectors into single BitVec words.
func checkN(n int) error {
	if n < 1 {
		return fmt.Errorf("workload: N must be positive, got %d", n)
	}
	if n > arbiter.MaxN {
		return fmt.Errorf("workload: N must be at most %d (one request word), got %d", arbiter.MaxN, n)
	}
	return nil
}

// NewGenerator constructs a workload by name with a "shape:param"
// grammar mirroring arbiter.ParsePolicySpec:
//
//	bernoulli[:p]   uniform Bernoulli arrivals (default p=0.30)
//	bursty          per-task on/off bursts
//	hotspot[:p]     task 1 hot at p (default 0.90), others at p/8
//	markov          global calm/storm regime modulation
//	hog             task 1 requests forever, others moderate load
//	trace           the built-in staggered/burst/silence replay
//	silent          zero-rate: never requests (elided as contention)
func NewGenerator(spec string, n int, seed uint64) (Generator, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	shape, param := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		shape, param = spec[:i], spec[i+1:]
	}
	rate := func(def float64) (float64, error) {
		if param == "" {
			return def, nil
		}
		v, err := strconv.ParseFloat(param, 64)
		if err != nil {
			return 0, fmt.Errorf("workload: %s rate %q is not a number", shape, param)
		}
		return v, nil
	}
	noParam := func() error {
		if param != "" {
			return fmt.Errorf("workload: %s takes no parameter (got %q)", shape, param)
		}
		return nil
	}
	switch shape {
	case "bernoulli":
		p, err := rate(0.30)
		if err != nil {
			return nil, err
		}
		return NewBernoulli(n, p, 2, seed)
	case "hotspot":
		p, err := rate(0.90)
		if err != nil {
			return nil, err
		}
		return NewHotspot(n, p, 2, seed)
	case "bursty":
		if err := noParam(); err != nil {
			return nil, err
		}
		return NewBursty(n, seed)
	case "markov":
		if err := noParam(); err != nil {
			return nil, err
		}
		return NewMarkov(n, seed)
	case "hog":
		if err := noParam(); err != nil {
			return nil, err
		}
		return NewHog(n, seed)
	case "trace":
		if err := noParam(); err != nil {
			return nil, err
		}
		return NewTrace("trace", n, builtinTrace(n))
	case "silent":
		if err := noParam(); err != nil {
			return nil, err
		}
		return NewSilent(n)
	}
	return nil, fmt.Errorf("workload: unknown workload %q (see NewGenerator for the grammar)", spec)
}

// DefaultWorkloads lists one canonical spec per traffic shape, the
// columns of the standard policy×workload grid.
func DefaultWorkloads() []string {
	return []string{"bernoulli:0.30", "bursty", "hotspot:0.90", "markov", "hog", "trace"}
}

// DefaultPolicies lists the canonical policy specs the grid evaluates:
// every implementation in internal/arbiter, cheap parameters.
func DefaultPolicies() []string {
	return []string{
		"rr", "fifo", "priority", "random:1",
		"fsm", "netlist:one-hot", "preemptive:4", "wrr:2", "hier:2",
	}
}
