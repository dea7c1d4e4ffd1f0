package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sparcs/internal/sim"
	"sparcs/internal/workload"
)

// ContentionSpec asks Simulate to inject one background source: a
// workload claiming Lines request lines on the arbiter of EACH named
// resource, in every stage that arbitrates all of them. With one
// resource the workload is any workload.NewGenerator shape; with two or
// more it is a workload.NewSharedGenerator shape ("corr[:p[:hold]]")
// whose Lines lanes acquire the resources in listed order, holding
// everything already granted while waiting for the next. The textual
// grammar (ParseContention) is
//
//	res1[+res2...]=workload[/lines]
//
// comma-separated, e.g. "M1=hog/2,M3=bernoulli:0.50,M1+M3=corr:0.25".
// Two single-resource entries may not name the same resource, and one
// entry may not repeat a resource: either is rejected with a
// *DuplicateResourceError instead of silently merging the sources
// (scale a source with /lines instead). A resource may still appear in a
// single-resource and a multi-resource entry, or in several
// multi-resource entries: those are independent background processes.
type ContentionSpec struct {
	// Resources names the arbitrated banks or physical channels, in
	// acquisition order: at least one, all distinct.
	Resources []string
	// Workload is the generator spec ("bursty", "bernoulli:0.30",
	// "corr:0.25", ...).
	Workload string
	// Lines is the number of request lines per resource; 0 means 1.
	Lines int
}

// String renders the canonical textual form of the spec.
func (c ContentionSpec) String() string {
	return fmt.Sprintf("%s=%s/%d", strings.Join(c.Resources, "+"), c.Workload, c.lines())
}

func (c ContentionSpec) lines() int {
	if c.Lines == 0 {
		return 1
	}
	return c.Lines
}

// newSource constructs a fresh simulator source for the spec (each
// stage and each run needs its own stateful instance).
func (c ContentionSpec) newSource(seed uint64) (sim.Requester, error) {
	if len(c.Resources) == 1 {
		gen, err := workload.NewGenerator(c.Workload, c.lines(), seed)
		if err != nil {
			return nil, err
		}
		return workload.OnResource(c.Resources[0], gen), nil
	}
	return workload.NewSharedGenerator(c.Workload, c.Resources, c.lines(), seed)
}

// activeLines is the number of request lines the spec adds on each of
// its resources: 0 for statically silent workloads, which the simulator
// elides, and for specs whose workload does not construct (Simulate
// reports those with context).
func (c ContentionSpec) activeLines() int {
	src, err := c.newSource(1)
	if err != nil {
		return 0
	}
	if s, ok := src.(sim.StaticallySilent); ok && s.Silent() {
		return 0
	}
	return c.lines()
}

// DuplicateResourceError reports a contention spec list naming one
// resource more than once where that is ambiguous: in two
// single-resource entries, or twice within one entry. The parser
// rejects duplicates up front: before this guard a repeated resource
// silently combined into one widened arbiter, so a typo'd list
// ("M1=hog,M1=bursty" for "M1=hog,M3=bursty") mis-reported which
// background load a run faced.
type DuplicateResourceError struct {
	// Resource is the resource named more than once.
	Resource string
}

func (e *DuplicateResourceError) Error() string {
	return fmt.Sprintf("core: contention resource %s appears more than once (each resource takes at most one single-resource spec and appears once per entry; scale a source with /lines)", e.Resource)
}

// ParseContention parses a comma-separated list of contention specs of
// the grammar documented on ContentionSpec. Workload names are
// validated immediately (against a placeholder seed) and duplicate
// resources rejected (*DuplicateResourceError); resource names can only
// be checked against a compiled design, which Simulate does.
func ParseContention(s string) ([]ContentionSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []ContentionSpec
	for _, entry := range strings.Split(s, ",") {
		cs, err := parseEntry(strings.TrimSpace(entry))
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	single := make(map[string]bool, len(out))
	for _, cs := range out {
		if len(cs.Resources) != 1 {
			continue
		}
		r := cs.Resources[0]
		if single[r] {
			return nil, &DuplicateResourceError{Resource: r}
		}
		single[r] = true
	}
	return out, nil
}

// parseEntry parses one res1[+res2...]=workload[/lines] entry,
// validating the workload half immediately.
func parseEntry(entry string) (ContentionSpec, error) {
	eq := strings.IndexByte(entry, '=')
	if eq <= 0 || eq == len(entry)-1 {
		return ContentionSpec{}, fmt.Errorf("core: contention entry %q is not res1[+res2...]=workload[/lines]", entry)
	}
	cs := ContentionSpec{Resources: strings.Split(entry[:eq], "+"), Workload: entry[eq+1:], Lines: 1}
	seen := make(map[string]bool, len(cs.Resources))
	for _, r := range cs.Resources {
		if seen[r] {
			return ContentionSpec{}, fmt.Errorf("core: contention entry %q: %w", entry, &DuplicateResourceError{Resource: r})
		}
		seen[r] = true
	}
	if sl := strings.LastIndexByte(cs.Workload, '/'); sl >= 0 {
		v, err := strconv.Atoi(cs.Workload[sl+1:])
		if err != nil || v < 1 {
			return ContentionSpec{}, fmt.Errorf("core: contention entry %q: line count %q must be a positive integer", entry, cs.Workload[sl+1:])
		}
		cs.Lines = v
		cs.Workload = cs.Workload[:sl]
	}
	if _, err := cs.newSource(1); err != nil {
		return ContentionSpec{}, fmt.Errorf("core: contention entry %q: %w", entry, err)
	}
	return cs, nil
}

// PhantomLines sums the request lines the specs add per resource — what
// arbiter policies, and the partitioner's arbiter-area model, must be
// sized for on top of each ArbiterSpec's member count. Statically silent
// workloads ("silent") are excluded, mirroring the simulator's elision.
func PhantomLines(specs []ContentionSpec) map[string]int {
	extra := map[string]int{}
	for _, cs := range specs {
		if n := cs.activeLines(); n > 0 {
			for _, r := range cs.Resources {
				extra[r] += n
			}
		}
	}
	return extra
}

// composed orders specs the way their sources are laid out and seeded:
// single-resource specs first, then multi-resource ones, each group in
// the order given. Position k in this order seeds a spec's generator
// and fixes its lane offsets, so appending a multi-resource spec never
// reseeds or shifts the single-resource ones.
func composed(specs []ContentionSpec) []ContentionSpec {
	out := make([]ContentionSpec, 0, len(specs))
	for _, cs := range specs {
		if len(cs.Resources) == 1 {
			out = append(out, cs)
		}
	}
	for _, cs := range specs {
		if len(cs.Resources) != 1 {
			out = append(out, cs)
		}
	}
	return out
}

// stageContention builds the sim sources for one stage: one fresh
// source per spec whose resources the stage all arbitrates — a
// correlated source only means something where its resources are
// arbitrated together. Seeds are derived from the spec's composed
// position so every source has an independent stream, and from the
// options seed only — not the stage — so a resource arbitrated in
// several stages faces the same background process in each (each stage
// constructs fresh generator state).
func stageContention(sp *StagePlan, specs []ContentionSpec, seed uint64) ([]sim.Requester, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	if seed == 0 {
		seed = 1
	}
	arbitrated := stageArbitrated(sp)
	var out []sim.Requester
	for k, cs := range composed(specs) {
		if !hostsAll(arbitrated, cs.Resources) {
			continue
		}
		src, err := cs.newSource(seed + uint64(k+1)*0x9e3779b97f4a7c15)
		if err != nil {
			return nil, fmt.Errorf("core: contention %s: %w", cs, err)
		}
		out = append(out, src)
	}
	return out, nil
}

// stageArbitrated returns the set of resources the stage arbitrates —
// the predicate every contention/wiring/width decision keys on.
func stageArbitrated(sp *StagePlan) map[string]bool {
	arbitrated := map[string]bool{}
	for _, a := range sp.Inserted.Arbiters {
		arbitrated[a.Resource] = true
	}
	return arbitrated
}

// hostsAll reports whether the set covers every listed resource.
func hostsAll(arbitrated map[string]bool, resources []string) bool {
	for _, r := range resources {
		if !arbitrated[r] {
			return false
		}
	}
	return true
}

// validateContention rejects specs no stage can host — a typo guard:
// silently ignoring "M9=hog", or a correlated source over resources
// never arbitrated together, would report a contention-free run as if
// the background load had been applied.
func validateContention(d *Design, specs []ContentionSpec) error {
	for _, cs := range specs {
		if len(cs.Resources) == 0 {
			return fmt.Errorf("core: contention %s spans no resources", cs)
		}
		hosted := false
		for _, sp := range d.Stages {
			if hostsAll(stageArbitrated(sp), cs.Resources) {
				hosted = true
				break
			}
		}
		if hosted {
			continue
		}
		if len(cs.Resources) == 1 {
			arbitrated := map[string]bool{}
			for _, sp := range d.Stages {
				//sparcs:ignore determinism commutative set union; iteration order cannot change the result
				for r := range stageArbitrated(sp) {
					arbitrated[r] = true
				}
			}
			var have []string
			for r := range arbitrated {
				have = append(have, r)
			}
			sort.Strings(have)
			return fmt.Errorf("core: contention resource %s is not arbitrated in any stage (arbitrated: %s)",
				cs.Resources[0], strings.Join(have, ", "))
		}
		var stages []string
		for si, sp := range d.Stages {
			var res []string
			for _, a := range sp.Inserted.Arbiters {
				res = append(res, a.Resource)
			}
			sort.Strings(res)
			stages = append(stages, fmt.Sprintf("#%d:{%s}", si, strings.Join(res, ",")))
		}
		return fmt.Errorf("core: contention %s spans resources no single stage arbitrates together (stages: %s)",
			cs, strings.Join(stages, " "))
	}
	return nil
}

// StageWidths reports, per stage, the request-line width every arbiter
// will be simulated at under the options' contention — member lines plus
// the lines of every non-silent source the stage hosts. This is what
// Options.NewPolicy will be called with; callers use it to validate
// size-dependent policies before running.
func StageWidths(d *Design, opts Options) []map[string]int {
	active := make([]int, len(opts.Contention))
	for i, cs := range opts.Contention {
		active[i] = cs.activeLines()
	}
	out := make([]map[string]int, len(d.Stages))
	for si, sp := range d.Stages {
		widths := map[string]int{}
		for _, a := range sp.Inserted.Arbiters {
			widths[a.Resource] = a.N()
		}
		arbitrated := stageArbitrated(sp)
		for i, cs := range opts.Contention {
			if active[i] == 0 || !hostsAll(arbitrated, cs.Resources) {
				continue
			}
			for _, r := range cs.Resources {
				widths[r] += active[i]
			}
		}
		out[si] = widths
	}
	return out
}
