package sparcs_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"sparcs"
	"sparcs/internal/core"
)

// fftCaptureDigests pins the FFT(6) case study's captured arbiter traces
// under three policies: SHA-256 over every stage's traces, resources in
// sorted order, each step's request then grant lines as bytes.
var fftCaptureDigests = map[string]string{
	"rr":       "0e01f1a9552446c417f86a369c5d73bc7814c4b698e9e06c0bb960e43029af4b",
	"priority": "7e916c4b2f95550a2f3ce4dabf0172aaa2f0b605fa781aac21cdd40e61d8b160",
	"wrr:2":    "c0587ec72abd5e7a4ae070d3a6aae521a6ad9c886a38e32349e0ae736aba5e25",
}

// captureDigest hashes one run's ArbiterTraces and checks that every
// captured Req/Grant slice is exact-size (cap == len).
func captureDigest(t *testing.T, res *sparcs.Result) string {
	t.Helper()
	h := sha256.New()
	var word [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	for si, ss := range res.Stages {
		resources := make([]string, 0, len(ss.Stats.ArbiterTraces))
		for r := range ss.Stats.ArbiterTraces {
			resources = append(resources, r)
		}
		sort.Strings(resources)
		put(si)
		for _, r := range resources {
			tr := ss.Stats.ArbiterTraces[r]
			h.Write([]byte(r))
			put(len(tr))
			for c, st := range tr {
				if cap(st.Req) != len(st.Req) || cap(st.Grant) != len(st.Grant) {
					t.Fatalf("stage %d %s cycle %d: Req len/cap %d/%d, Grant len/cap %d/%d; want exact-size slices",
						si, r, c, len(st.Req), cap(st.Req), len(st.Grant), cap(st.Grant))
				}
				put(len(st.Req))
				for _, lines := range [][]bool{st.Req, st.Grant} {
					for _, b := range lines {
						if b {
							h.Write([]byte{1})
						} else {
							h.Write([]byte{0})
						}
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFFTCaptureDigest pins the captured request/grant streams byte for
// byte, so a change to how traces are recorded cannot alter what
// Stats.ArbiterTraces reports.
func TestFFTCaptureDigest(t *testing.T) {
	const tiles = 6
	sys, err := sparcs.FFTSystem(tiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"rr", "priority", "wrr:2"} {
		mem := sparcs.NewMemory()
		in := sparcs.LoadFFTInput(mem, tiles, 42)
		res, err := sys.Run(sparcs.WithMemory(mem), sparcs.WithCapture(), sparcs.WithPolicy(pol))
		if err != nil {
			t.Fatal(err)
		}
		if err := sparcs.CheckFFTOutput(mem, in); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if got, want := captureDigest(t, res), fftCaptureDigests[pol]; got != want {
			t.Errorf("%s: capture digest %s, want %s", pol, got, want)
		}
	}
}

// TestFFTCaptureOffStageAllocs pins the allocations of one capture-off
// FFT stage run: trace recording must stay off the cost of runs that do
// not ask for it.
func TestFFTCaptureOffStageAllocs(t *testing.T) {
	const tiles = 6
	const wantAllocs = 123
	sys, err := sparcs.FFTSystem(tiles)
	if err != nil {
		t.Fatal(err)
	}
	d := sys.Design()
	mem := sparcs.NewMemory()
	sparcs.LoadFFTInput(mem, tiles, 42)
	opts := core.Options{DisableTraces: true}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := core.SimulateStage(d, 0, mem, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != wantAllocs {
		t.Fatalf("capture-off stage 0 run: %v allocs/op, want %d", allocs, wantAllocs)
	}
}
