package core

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzContentionSeeds is the seed corpus for single-resource entries:
// every documented form, the /lines corners, the duplicate-resource
// rules, and representative junk.
func fuzzContentionSeeds() []string {
	return []string{
		"", " ", "M1=hog", "M1=hog/2", "M1=bernoulli:0.50", "M3=bursty",
		"M1=silent", "M1=hog/1,M3=bernoulli:0.25", " M1=hog , M3=bursty/3 ",
		"M1=hog/0", "M1=hog/-1", "M1=hog/x", "M1=hog/99999999999999999999",
		"=hog", "M1=", "M1", ",", "M1=hog,,M3=bursty", "M1==hog",
		"M1=bogus", "M1=bernoulli", "M1=bernoulli:1.5", "M 1=hog",
		"M1=hog/2/3", "préemptive=hog", "M1=hog\x00",
		"M1=hog,M1=bursty", "M1=hog/2,M1=hog/2", "M2=hog,M1=bursty,M2=silent",
	}
}

// fuzzSharedSeeds is the seed corpus for correlated (multi-resource)
// entries.
func fuzzSharedSeeds() []string {
	return []string{
		"", "M1+M3=corr", "M1+M3=corr:0.25", "M1+M3=corr:0.25/2",
		"M1+M2+M3=corr:0.10", "M1+M3=corr,M2+M4=corr:0.50/3",
		"M1+M3=corr/0", "M1+M3=corr/-2", "M1+M3=corr/x",
		"+M1=corr", "M1+=corr", "M1+M3=", "M1+M3", "=corr",
		"M1+M3=bogus", "M1=corr", "M1+M3=corr:2.0", "M1+M1=corr",
		"M1+M3+M1=corr", "M1+M3=corr,M1+M3=corr:0.50",
	}
}

// fuzzMixedSeeds is the seed corpus for lists mixing both entry forms;
// they put a '+' on either side of the single-vs-correlated boundary.
func fuzzMixedSeeds() []string {
	return []string{
		"", "M1=hog,M1+M3=corr:0.25", "M1+M3=corr,M1=hog/2",
		"M1=hog/2,M3=bernoulli:0.30,M1+M3=corr:0.25/2",
		"M1+M3=corr,M2=bursty,", "M1=hog,M1+M3",
		"M1=hog,M1=bursty,M1+M3=corr", "M1+M1=corr,M2=hog",
		"M1=hog,M1+M3=corr,M3=bursty",
	}
}

// allContentionSeeds joins the three corpora: single, correlated, then
// mixed.
func allContentionSeeds() []string {
	all := append(fuzzContentionSeeds(), fuzzSharedSeeds()...)
	return append(all, fuzzMixedSeeds()...)
}

// canonContention renders the canonical comma-joined form of a parsed
// spec list.
func canonContention(specs []ContentionSpec) string {
	parts := make([]string, len(specs))
	for i, cs := range specs {
		parts[i] = cs.String()
	}
	return strings.Join(parts, ",")
}

// checkContentionRoundTrip is the fuzz property for ParseContention:
// parsing never panics, errors carry the package prefix and come
// without a partial result, and every accepted input canonicalizes
// through String() to a fixed point of parse∘String.
func checkContentionRoundTrip(t *testing.T, s string) {
	t.Helper()
	specs, err := ParseContention(s)
	if err != nil {
		if specs != nil {
			t.Fatalf("ParseContention(%q) returned both specs and error %v", s, err)
		}
		if !strings.Contains(err.Error(), "core:") {
			t.Fatalf("ParseContention(%q) error %q lacks the package prefix", s, err)
		}
		return
	}
	if len(specs) == 0 {
		if strings.TrimSpace(s) != "" {
			t.Fatalf("ParseContention(%q) accepted non-blank input with no specs", s)
		}
		return
	}
	canon := canonContention(specs)
	specs2, err := ParseContention(canon)
	if err != nil {
		t.Fatalf("canonical form %q of %q does not reparse: %v", canon, s, err)
	}
	if !reflect.DeepEqual(specs, specs2) {
		t.Fatalf("round trip diverges for %q: %+v -> %q -> %+v", s, specs, canon, specs2)
	}
	if got := canonContention(specs2); got != canon {
		t.Fatalf("String is not a fixed point for %q: %q -> %q", s, canon, got)
	}
}

// fuzzContention registers seeds and fuzzes the contention grammar:
// no input may panic, and every accepted input must round-trip through
// its canonical String() form. CI smokes the targets with a short
// -fuzztime.
func fuzzContention(f *testing.F, seeds []string) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkContentionRoundTrip(t, s)
	})
}

// FuzzParseContention starts from single-resource entries.
func FuzzParseContention(f *testing.F) { fuzzContention(f, fuzzContentionSeeds()) }

// FuzzParseSharedContention starts from correlated entries.
func FuzzParseSharedContention(f *testing.F) { fuzzContention(f, fuzzSharedSeeds()) }

// FuzzParseMixedContention starts from every corpus, so the boundary
// between the two entry forms (a '+' left of '=') gets exercised from
// both sides.
func FuzzParseMixedContention(f *testing.F) { fuzzContention(f, allContentionSeeds()) }

// TestContentionGrammarSeedCorpus runs the fuzz property over the seed
// corpora in plain `go test`, so the round-trip invariants are enforced
// on every run, not only when the fuzzer is invoked.
func TestContentionGrammarSeedCorpus(t *testing.T) {
	for _, s := range allContentionSeeds() {
		checkContentionRoundTrip(t, s)
	}
}
