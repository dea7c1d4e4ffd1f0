package sparcs_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sparcs"
)

// contentionDigests pins the FFT(2) case study's full per-stage Stats —
// traces, phantom-line Contention and correlated Shared statistics
// included — under background load: SHA-256 over the JSON encoding of
// every stage's Stats, keyed by "contention|policy". Runs use seed 7,
// a 500k-cycle watchdog and full trace capture, so the digests cover
// each source's lane layout (trace width and bit positions) and its
// seed stream, not only the cycle counts.
var contentionDigests = map[string]string{
	"M1=hog/1|rr":                                  "92c93b11a322be6016df06294f89047ad49d8329831647df4cc2f7a8dae8c36a",
	"M1=hog/1|hier:2":                              "1a9c8b479dc9372e817278d7918d4bdc85fe95f5ff6acc9add4dd54ee97d6129",
	"M1=hog/1|wrr:2":                               "862c77de4e6012aeee98a7e52c3890d189d63d88ec4af1eda01aca1a02dafa27",
	"M1=bursty/2,M3=bernoulli:0.50|rr":             "2eaf3cf20db8db50fde7bcfd2b88166222895e486c1b73a095862bff3679f56a",
	"M1=bursty/2,M3=bernoulli:0.50|hier:2":         "db04925e5c48182c5b1716db4704467358283b5439eeb77ebe909870b33d7d8d",
	"M1=bursty/2,M3=bernoulli:0.50|wrr:2":          "db92b56956e401afe56382a23d63bb7391b1b60746b752af88a61a6ab169badf",
	"M1=silent/3|rr":                               "3411d21fae9792e16e5f33223327ea5a30343c3707f3afea7e693ee8c1155e7c",
	"M1=silent/3|hier:2":                           "5a5f2048c95d255e39193a139c66137d1e05efb4fd69fc782a314368cc8d4f19",
	"M1=silent/3|wrr:2":                            "4b312d58bbb68cec8ec0bcd38dfdcdf34965cc9afafb7e4c267e1c530db2ba96",
	"M1+M3=corr:0.30/1|rr":                         "5a8734b06a14aa06f04e418f4f01854a85109598cf6770d0c4d8c712c225e0a0",
	"M1+M3=corr:0.30/1|hier:2":                     "e176d67d807176474766fe36ff150fe141941d3f1988b6951c2a460331ad5f0b",
	"M1+M3=corr:0.30/1|wrr:2":                      "2f60b44adc78901e9e43a49249906c28d5d4425e21fb3e0307db066950952a18",
	"M1=bursty/1,M1+M3=corr:0.30/1|rr":             "7ec8b25635c46ff77b2ce6d5621907c3387671837867b446423c5e468a4a687c",
	"M1=bursty/1,M1+M3=corr:0.30/1|hier:2":         "41696c72f867df85486d50b81a29c968969ac9f5cf72655be3e22b677d92b8d6",
	"M1=bursty/1,M1+M3=corr:0.30/1|wrr:2":          "349fa5b4299e8b24f79156b055d5758617c95ad20aab67f1683ec7def17c6f15",
	"M1+M3=corr:0.30/1,M1+M3=corr:0.50:2/2|rr":     "5289943d7d867d877f213cd131b6a47cbd8b4f00fff4a42fb0c4912f8a3ef6c5",
	"M1+M3=corr:0.30/1,M1+M3=corr:0.50:2/2|hier:2": "beca44c89358ccb34c42ad959f0e3d9ddbd06224c155192627fcd29845417fe4",
	"M1+M3=corr:0.30/1,M1+M3=corr:0.50:2/2|wrr:2":  "f526b6ccc3b66f88f563e312503fd4cfa163e5711354c760ee1599639a22bc9f",
}

// runContention runs FFT(2) under one contention spec and policy with
// the pinned run settings.
func runContention(t *testing.T, sys *sparcs.System, spec, pol string) *sparcs.Result {
	t.Helper()
	res, err := sys.Run(sparcs.WithContention(spec), sparcs.WithPolicy(pol),
		sparcs.WithSeed(7), sparcs.WithMaxCycles(500_000), sparcs.WithCapture())
	if err != nil {
		t.Fatalf("%s under %s: %v", spec, pol, err)
	}
	return res
}

// statsDigest hashes every stage's Stats in stage order.
func statsDigest(t *testing.T, res *sparcs.Result) string {
	t.Helper()
	h := sha256.New()
	for _, ss := range res.Stages {
		b, err := json.Marshal(ss.Stats)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestContentionDigests pins the simulated outcome of single-resource,
// correlated and mixed background sources byte for byte, so a change to
// how sources are parsed, seeded, laid out or stepped cannot alter what
// a run reports.
func TestContentionDigests(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range contentionDigests {
		i := strings.LastIndexByte(key, '|')
		spec, pol := key[:i], key[i+1:]
		if got := statsDigest(t, runContention(t, sys, spec, pol)); got != want {
			t.Errorf("%s under %s: stats digest %s, want %s", spec, pol, got, want)
		}
	}
}

// TestContentionMixedOrderEquivalent pins that a mixed list's result
// does not depend on where its correlated entries sit relative to its
// single-resource ones: sources are laid out and seeded singles first,
// then correlated, each group in the order given.
func TestContentionMixedOrderEquivalent(t *testing.T) {
	sys, err := sparcs.FFTSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"rr", "hier:2", "wrr:2"} {
		a := runContention(t, sys, "M1+M3=corr:0.30/1,M1=bursty/1", pol)
		b := runContention(t, sys, "M1=bursty/1,M1+M3=corr:0.30/1", pol)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: reordering a mixed contention list changed the result", pol)
		}
	}
}
