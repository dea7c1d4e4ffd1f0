// Command perfbench is the repository benchmark: four seeded workloads
// driven against the sparcs public API from one process, reporting the
// end-to-end metrics named in BENCHMARK.json, or, with --trace 1, the
// per-layer metrics of a traced run. See README.md in this directory for
// the workloads, the metric definitions and the layer → end-to-end map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fft-flow --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print every
// metric by name and unit, the op sample counts and any failed checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks every pass and waives the minimum sample count, so
	// the tests can exercise every workload and every check quickly.
	smoke bool
	// deadline is when loops stop regardless of their budget, keeping
	// the process inside its time limit.
	deadline time.Time
	// spanDir receives the traced run's spans.
	spanDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed ops and keeps the first messages of
// each failure kind.
type tally struct {
	attempted, failed int
	// known counts failures of the documented known defect (see
	// README.md); they are failed ops but do not make the run incorrect.
	known    int
	messages map[string]int
	first    []string
}

func (t *tally) add(o outcome) {
	t.attempted++
	if o.err == nil {
		return
	}
	t.failed++
	if o.known {
		t.known++
	}
	if t.messages == nil {
		t.messages = map[string]int{}
	}
	kind := o.kind
	if kind == "" {
		kind = "error"
	}
	if t.messages[kind] == 0 {
		t.first = append(t.first, fmt.Sprintf("%s: %v", kind, o.err))
	}
	t.messages[kind]++
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.known += o.known
	for _, m := range o.first {
		if kind, _, _ := strings.Cut(m, ":"); t.messages[kind] == 0 {
			t.first = append(t.first, m)
		}
	}
	for k, n := range o.messages {
		if t.messages == nil {
			t.messages = map[string]int{}
		}
		t.messages[k] += n
	}
}

// correct reports whether every failure is the documented known defect.
func (t *tally) correct() bool { return t.failed == t.known }

// outcome is the checked result of one op.
type outcome struct {
	cycles int64   // simulated or arbitrated cycles the op covered
	model  float64 // the op's model_cycles contribution
	err    error   // non-nil when the op failed or its output check did
	kind   string  // short failure class for the summary
	known  bool    // err is the documented known defect
}

func failed(kind string, err error) outcome { return outcome{err: err, kind: kind} }

// result is what a workload run produces: metrics plus the op tally.
type result struct {
	metrics map[string]metric
	tally   tally
	notes   []string // extra human-readable lines
}

// show prints a metric by name and unit without reporting it in the
// JSON line (it is not in BENCHMARK.json; see README.md).
func (r *result) show(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%-40s %16.6g %s (printed, not gated)", name, v, unit))
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(config) (*result, error){
	"fft-flow":       runFFTFlow,
	"policy-grid":    runPolicyGrid,
	"scenario-churn": runScenarioChurn,
	"sparcsd-mixed":  runSparcsdMixed,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "fft-flow, policy-grid, scenario-churn or sparcsd-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.spanDir = filepath.Join(".bench_build", "spans")
	// One P: every op's CPU work, the collector's mark work included, runs
	// on the caller's CPU and counts in the op's time. With two Ps the
	// mark workers take the second CPU, and on a shared 2-vCPU host that
	// CPU's availability swings with the neighbours: a competing busy
	// loop moved fft-flow's op_ms_p50 by 69% at GOMAXPROCS 2 and by 1%
	// at 1 (README.md, "Baseline and bounds").
	runtime.GOMAXPROCS(1)
	// fft-flow allocates 3.9 MB per op over a live heap under 1 MB, so at
	// the default GOGC the 4 MB minimum heap goal starts one or two
	// collections in every op and its median lands between the two
	// modes. At 400 the goal is 16 MB: a collection every few ops, and
	// the median is an op without one.
	debug.SetGCPercent(400)
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation and prints its report.
func run(cfg config, out io.Writer) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	// Leave room inside the 180 s process limit for set-up and checks.
	cfg.deadline = time.Now().Add(time.Duration(cfg.seconds*1.5e9) + 30*time.Second)
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		f, ok := workloads[cfg.workload]
		if !ok {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
		res, err = f(cfg)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# workload %s seed %d seconds %g trace %v GOMAXPROCS %d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.Version())
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "# %-40s %16.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, "#", n)
	}
	t := res.tally
	fmt.Fprintf(out, "# %-40s %16.6g %s (printed, not gated)\n", "fail_ratio", ratio(t.failed, t.attempted), "ratio")
	fmt.Fprintf(out, "# ops attempted %d failed %d (known defect %d)\n", t.attempted, t.failed, t.known)
	for _, m := range t.first {
		fmt.Fprintln(out, "# first failure:", m)
	}
	b, err := json.Marshal(report{Correct: t.correct() && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: res.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// splitmix derives independent per-op seeds from the workload seed.
func splitmix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
