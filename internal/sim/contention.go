package sim

import (
	"fmt"

	"sparcs/internal/arbiter"
)

// Requester is a closed-loop background traffic source for contention
// injection. One source claims Lanes() request lines on each of its
// Resources(): one line per (lane, resource) pair, where lane j's lines
// across all resources belong to one logical job. Every line follows the
// paper's Figure 8 protocol — assert, hold while granted, release — so a
// source spanning one resource and a source spanning several differ only
// in len(Resources()). A multi-resource lane acquires its resources in
// Resources() order, holding everything already granted while it waits
// for the next: the hold-and-wait discipline behind deadlock-adjacent
// sharing patterns.
//
// workload.SharedSource implements it directly; a single-resource
// workload.Generator attaches through workload.OnResource. The interface
// lives here so either attaches to a Config without an import cycle
// (workload already imports sim for its grid fan-out).
//
// NextBits is called once per cycle before any arbiter steps, observing
// the previous cycle's grants on every resource coherently.
// Implementations must be deterministic and allocation-free in NextBits;
// Run passes setup-allocated lane words and copies the results into the
// arbiters' request words.
type Requester interface {
	// Name identifies the traffic shape ("bursty", "corr:0.10", ...).
	Name() string
	// Resources lists the arbitrated resource names the source spans, in
	// acquisition order: at least one, all distinct.
	Resources() []string
	// Lanes returns the number of request lines the source claims on
	// each of its resources.
	Lanes() int
	// NextBits rewrites req[r], resource r's lane word (bit j = lane
	// j), for the coming cycle after observing prevGrant[r], the grants
	// those lanes received last cycle. len(req) == len(Resources());
	// bits at or above Lanes() are ignored.
	NextBits(req, prevGrant []arbiter.BitVec)
	// Reset returns the source to its initial state. Run calls it once
	// at setup so a source replays identically across runs.
	Reset()
}

// StaticallySilent is the optional no-op marker for Requesters: a
// source reporting Silent() == true guarantees it never asserts a
// request, and Run elides it entirely — no phantom lines, no policy
// resizing, no per-cycle sampling — so a Config that differs from an
// uninstrumented one only by silent contention produces byte-identical
// Stats under every policy (including policies like the hierarchical
// tree whose internal structure depends on the total line count).
// workload.NewSilent implements it.
type StaticallySilent interface {
	// Silent reports whether the source is statically request-free.
	Silent() bool
}

// ContentionStats aggregates the background phantom lines' experience
// on one resource over a run, per phantom line in attachment order.
type ContentionStats struct {
	// Grants[i] is the number of cycles phantom line i held the
	// resource. These grants are not counted in Stats.GrantsByRes,
	// which remains member-task grants only.
	Grants []int
	// Waits[i] is the number of cycles phantom line i requested without
	// receiving the grant, including a wait still in progress when the
	// run ends (no censoring: a phantom starved for the whole run
	// reports the full run length).
	Waits []int
}

// SharedStats aggregates one multi-resource source's cross-resource
// experience over a run. Per-line grant/wait counts additionally land
// in Stats.Contention under each spanned resource, exactly like the
// lines of single-resource sources.
type SharedStats struct {
	// Name is the source's Name(), Resources its spanned resources in
	// acquisition order.
	Name      string
	Resources []string
	// Grants[r] counts granted line-cycles on resource r (summed over
	// lanes); Waits[r] counts line-cycles requesting without a grant.
	Grants []int
	Waits  []int
	// HoldWait counts lane-cycles in the hold-and-wait overlap: a lane
	// holding (granted) at least one resource while requesting another
	// without holding it — the deadlock-adjacent state a correlated
	// source exists to exercise.
	HoldWait int
	// AllHeld counts lane-cycles with every spanned resource granted
	// simultaneously — the lane's critical section.
	AllHeld int
}

// source is one wired (non-elided) background source: per resource, the
// lane window [offs[r], offs[r]+lanes) in arbs[r]'s request/grant words,
// plus reusable per-resource lane-word scratch. stats is non-nil only
// for sources spanning two or more resources.
type source struct {
	gen      Requester
	arbs     []*arbInst
	offs     []int
	lanes    int
	laneMask arbiter.BitVec   // low `lanes` bits
	reqW     []arbiter.BitVec // per-resource lane-word scratch
	prevW    []arbiter.BitVec
	stats    *SharedStats
}

// next refreshes the source's lane windows on every spanned resource
// from one coherent snapshot of last cycle's grants.
//
//sparcs:hotpath
func (src *source) next() {
	for r, ai := range src.arbs {
		off := uint(src.offs[r])
		src.reqW[r] = ai.req >> off & src.laneMask
		src.prevW[r] = ai.grant >> off & src.laneMask
	}
	src.gen.NextBits(src.reqW, src.prevW)
	for r, ai := range src.arbs {
		off := uint(src.offs[r])
		ai.req = ai.req&^(src.laneMask<<off) | (src.reqW[r]&src.laneMask)<<off
	}
}

// wireSources validates the configured sources and appends their lanes
// to the named arbiters in list order. Called before policy
// construction, so policies are sized over the fully widened counts.
// Statically silent sources are validated, then elided.
func wireSources(sources []Requester, arbs map[string]*arbInst) ([]*source, error) {
	var wired []*source
	for i, gen := range sources {
		if gen == nil {
			return nil, fmt.Errorf("sim: contention source %d has no generator", i)
		}
		// Validate before eliding, so a typo'd resource errors even when
		// the source is silent.
		resources := gen.Resources()
		if len(resources) == 0 {
			return nil, fmt.Errorf("sim: contention source %d (%s) spans no resources", i, gen.Name())
		}
		seen := make(map[string]bool, len(resources))
		for _, r := range resources {
			if seen[r] {
				return nil, fmt.Errorf("sim: contention source %d (%s) names resource %s twice", i, gen.Name(), r)
			}
			seen[r] = true
			if arbs[r] == nil {
				return nil, fmt.Errorf("sim: contention source %d (%s) on %s, but no arbiter guards it", i, gen.Name(), r)
			}
		}
		lanes := gen.Lanes()
		if lanes < 1 {
			return nil, fmt.Errorf("sim: contention source %d (%s) claims %d lines", i, gen.Name(), lanes)
		}
		if s, ok := gen.(StaticallySilent); ok && s.Silent() {
			continue // the no-op path: statically silent sources are elided
		}
		for _, r := range resources {
			if ai := arbs[r]; ai.width+lanes > arbiter.MaxN {
				return nil, fmt.Errorf("sim: contention source %d (%s) widens the arbiter on %s to %d request lines; the bitset kernel supports at most %d",
					i, gen.Name(), r, ai.width+lanes, arbiter.MaxN)
			}
		}
		gen.Reset()
		n := len(resources)
		words := make([]arbiter.BitVec, 2*n)
		src := &source{
			gen:      gen,
			arbs:     make([]*arbInst, n),
			offs:     make([]int, n),
			lanes:    lanes,
			laneMask: arbiter.Mask(lanes),
			reqW:     words[:n:n],
			prevW:    words[n:],
		}
		if n > 1 {
			src.stats = &SharedStats{
				Name:      gen.Name(),
				Resources: append([]string(nil), resources...),
				Grants:    make([]int, n),
				Waits:     make([]int, n),
			}
		}
		for r, res := range resources {
			ai := arbs[res]
			src.arbs[r], src.offs[r] = ai, ai.width
			ai.width += lanes
		}
		wired = append(wired, src)
	}
	return wired, nil
}

// sizePhantoms allocates the per-phantom-line counters once every source
// has widened its arbiters.
func sizePhantoms(arbs map[string]*arbInst) {
	//sparcs:ignore determinism each instance is sized independently; iteration order cannot change the result
	for _, ai := range arbs {
		if phantoms := ai.width - ai.memberN; phantoms > 0 {
			ai.phGrants = make([]int, phantoms)
			ai.phWaits = make([]int, phantoms)
		}
	}
}

// observe accumulates this cycle's cross-resource statistics from the
// freshly issued grants. For lane j: every granted line counts toward its
// resource's Grants, every requesting-but-ungranted line toward Waits;
// a lane holding at least one resource while waiting on another is in
// hold-and-wait; a lane holding all of them is in its critical section.
//
//sparcs:hotpath
func (src *source) observe() {
	for j := 0; j < src.lanes; j++ {
		held, want, all := false, false, true
		for r, ai := range src.arbs {
			//sparcs:ignore bitwidth offs[r]+j < width <= MaxN by wiring-time validation
			bit := arbiter.BitVec(1) << uint(src.offs[r]+j)
			switch {
			case ai.grant&bit != 0:
				held = true
				src.stats.Grants[r]++
			case ai.req&bit != 0:
				want = true
				src.stats.Waits[r]++
				all = false
			default:
				all = false
			}
		}
		if held && want {
			src.stats.HoldWait++
		}
		if held && all {
			src.stats.AllHeld++
		}
	}
}
