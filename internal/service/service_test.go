package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparcs"
)

// post drives the handler in-process — no TCP, no fd limits — which is
// what lets the concurrency tests run a thousand simultaneous requests
// under -race.
func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerMatchesOfflineRun is the service's correctness contract:
// for every request shape, the served body is byte-identical to
// OfflineResult — and hence to EncodeResult over a plain System.Run
// with the same options. Headers carry the metadata; the body never
// differs between a cache hit and a miss.
func TestServerMatchesOfflineRun(t *testing.T) {
	s := newServer(t, Config{})
	requests := []ExperimentRequest{
		{Design: "fft", Tiles: 2},
		{Design: "fft", Tiles: 2, Run: RunSpec{Policy: "wrr:2", Contention: "M1=hog/1", Seed: 7}},
		{Design: "fft", Tiles: 2, Run: RunSpec{Policy: "hier:2", Contention: "M1=bernoulli:0.30/2,M1+M3=corr:0.25", Seed: 3}},
		{Design: "fft", Tiles: 3, Run: RunSpec{Policy: "priority", MaxCycles: 500000}, Class: "batch"},
	}
	for i, req := range requests {
		offline, hash, err := OfflineResult(req)
		if err != nil {
			t.Fatalf("request %d: offline: %v", i, err)
		}
		// Serve the same request twice: a miss (or singleflight) first,
		// then a guaranteed cache hit. Both must serve the same bytes.
		for pass, want := range []string{"", "hit"} {
			rec := post(t, s.Handler(), "/v1/experiments", req)
			if rec.Code != http.StatusOK {
				t.Fatalf("request %d pass %d: status %d: %s", i, pass, rec.Code, rec.Body.String())
			}
			if !bytes.Equal(rec.Body.Bytes(), offline) {
				t.Fatalf("request %d pass %d: served body differs from offline run:\nserved:  %s\noffline: %s",
					i, pass, rec.Body.String(), offline)
			}
			if got := rec.Header().Get("X-Sparcsd-Design-Hash"); got != hash {
				t.Fatalf("request %d pass %d: hash header %q, want %q", i, pass, got, hash)
			}
			if got := rec.Header().Get("X-Sparcsd-Cache"); want != "" && got != want {
				t.Fatalf("request %d pass %d: cache header %q, want %q", i, pass, got, want)
			}
		}
	}
}

// TestDesignHashIdentity pins the cache key's semantics: same inputs
// hash alike across independent constructions, different build inputs
// hash apart.
func TestDesignHashIdentity(t *testing.T) {
	hash := func(tiles int, b BuildSpec) string {
		g, board, programs, bopts, err := designInputs("fft", tiles, b)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sparcs.DesignHash(g, board, programs, bopts...)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h1, h2 := hash(2, BuildSpec{}), hash(2, BuildSpec{}); h1 != h2 {
		t.Fatalf("same design hashed differently: %s vs %s", h1, h2)
	}
	if h1, h2 := hash(2, BuildSpec{}), hash(3, BuildSpec{}); h1 == h2 {
		t.Fatalf("different tile counts share hash %s", h1)
	}
	if h1, h2 := hash(2, BuildSpec{}), hash(2, BuildSpec{Conservative: true}); h1 == h2 {
		t.Fatalf("different build options share hash %s", h1)
	}
	if !strings.HasPrefix(hash(2, BuildSpec{}), "sha256:") {
		t.Fatal("hash lacks the sha256: scheme prefix")
	}
}

// TestConcurrentRequests hammers one server with 1000 simultaneous
// in-process requests mixing cache hits, cache misses (two distinct
// designs), invalid designs, and both admission classes — the -race
// exercise behind the service's "concurrent by construction" claim.
// Every 200 body must be byte-equal to its design's offline run, every
// outcome must be accounted for, and the two designs must compile
// exactly once each no matter how many requests raced on a cold cache.
// A second phase holds every execution slot and floods the bounded
// queues, making the 429 backpressure path deterministic (scheduling on
// a single-CPU host can otherwise drain arrivals as fast as they
// queue).
func TestConcurrentRequests(t *testing.T) {
	s := newServer(t, Config{Workers: 2, QueueDepth: 4})

	off2, _, err := OfflineResult(ExperimentRequest{Design: "fft", Tiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	off3, _, err := OfflineResult(ExperimentRequest{Design: "fft", Tiles: 3})
	if err != nil {
		t.Fatal(err)
	}

	const total = 1000
	var ok2, ok3, rejected, badDesign, other atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req := ExperimentRequest{Design: "fft", Tiles: 2}
			if i%2 == 1 {
				req.Class = "batch"
			}
			switch {
			case i%10 == 9:
				req.Design = "no-such-design"
			case i%3 == 0:
				req.Tiles = 3
			}
			rec := post(t, s.Handler(), "/v1/experiments", req)
			switch rec.Code {
			case http.StatusOK:
				want := off2
				counter := &ok2
				if req.Tiles == 3 {
					want = off3
					counter = &ok3
				}
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("request %d: served body differs from offline run", i)
				}
				counter.Add(1)
			case http.StatusTooManyRequests:
				var e ErrorJSON
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Kind != "queue-full" {
					t.Errorf("request %d: 429 body %q lacks queue-full kind", i, rec.Body.String())
				}
				rejected.Add(1)
			case http.StatusBadRequest:
				if req.Design == "no-such-design" {
					badDesign.Add(1)
				} else {
					t.Errorf("request %d: unexpected 400: %s", i, rec.Body.String())
				}
			default:
				other.Add(1)
				t.Errorf("request %d: unexpected status %d: %s", i, rec.Code, rec.Body.String())
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if got := ok2.Load() + ok3.Load() + rejected.Load() + badDesign.Load() + other.Load(); got != total {
		t.Fatalf("accounted for %d of %d requests", got, total)
	}
	if ok2.Load() == 0 || ok3.Load() == 0 {
		t.Fatalf("both designs should serve successfully (tiles2=%d tiles3=%d)", ok2.Load(), ok3.Load())
	}

	// Phase 2: hold both execution slots, then flood both classes. With
	// no slot free, arrivals can only queue (4 per class) or reject:
	// exactly 8 of the 50 requests block until the slots free up, the
	// other 42 must come back as typed 429s.
	for i := 0; i < 2; i++ {
		if err := s.adm.acquire(context.Background(), "interactive"); err != nil {
			t.Fatal(err)
		}
	}
	const flood = 50
	var floodOK, floodRejected atomic.Int64
	var floodWG sync.WaitGroup
	for i := 0; i < flood; i++ {
		floodWG.Add(1)
		go func(i int) {
			defer floodWG.Done()
			req := ExperimentRequest{Design: "fft", Tiles: 2}
			if i%2 == 1 {
				req.Class = "batch"
			}
			rec := post(t, s.Handler(), "/v1/experiments", req)
			switch rec.Code {
			case http.StatusOK:
				if !bytes.Equal(rec.Body.Bytes(), off2) {
					t.Errorf("flood request %d: served body differs from offline run", i)
				}
				floodOK.Add(1)
			case http.StatusTooManyRequests:
				var e ErrorJSON
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Kind != "queue-full" {
					t.Errorf("flood request %d: 429 body %q lacks queue-full kind", i, rec.Body.String())
				}
				rejected.Add(1)
				floodRejected.Add(1)
			default:
				t.Errorf("flood request %d: unexpected status %d: %s", i, rec.Code, rec.Body.String())
			}
		}(i)
	}
	// Every flood request must resolve — 8 queued, 42 rejected — before
	// the slots free up, or a late arrival could slip into a queue slot
	// vacated by dispatch and skew the counts.
	deadline := time.Now().Add(30 * time.Second)
	for floodRejected.Load() != flood-8 {
		if time.Now().After(deadline) {
			_, queued, _ := s.adm.snapshot()
			t.Fatalf("flood never settled: %d rejected, queues %v", floodRejected.Load(), queued)
		}
		time.Sleep(time.Millisecond)
	}
	s.adm.release()
	s.adm.release()
	floodWG.Wait()
	if floodOK.Load() != 8 {
		t.Fatalf("flood served %d requests, want exactly the 8 queued ones", floodOK.Load())
	}

	st := statsOf(t, s)
	if st.Compiles != 2 {
		t.Fatalf("compiles = %d, want exactly 2 (one per distinct design hash)", st.Compiles)
	}
	if st.CacheMisses != 2 {
		t.Fatalf("cache misses = %d, want 2", st.CacheMisses)
	}
	if wantHits := ok2.Load() + ok3.Load() + floodOK.Load() - 2; st.CacheHits != wantHits {
		t.Fatalf("cache hits = %d, want %d (every served request after the first per design)", st.CacheHits, wantHits)
	}
	if st.RejectedFull != rejected.Load() || st.RejectedFull < flood-8 {
		t.Fatalf("stats rejectedFull = %d, client saw %d (want >= %d)", st.RejectedFull, rejected.Load(), flood-8)
	}
}

func statsOf(t *testing.T, s *Server) Stats {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSweepEndpoint pins the sweep fan-out and its partial-failure
// contract: completed siblings come back in order (byte-identical to
// their offline equivalents), the failed slot is null, and the typed
// error names the failing index — System.Sweep's SweepError surfaced
// over the wire.
func TestSweepEndpoint(t *testing.T) {
	s := newServer(t, Config{})
	req := SweepRequest{
		Design: "fft", Tiles: 2,
		Experiments: []RunSpec{
			{},
			{Policy: "no-such-policy"},
			{Policy: "priority", Seed: 5},
		},
	}
	rec := post(t, s.Handler(), "/v1/sweeps", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Error == nil || resp.Error.Index != 1 {
		t.Fatalf("sweep error = %+v, want index 1", resp.Error)
	}
	if !strings.Contains(resp.Error.Message, "unknown policy") {
		t.Fatalf("sweep error message %q does not name the cause", resp.Error.Message)
	}
	if string(resp.Results[1]) != "null" {
		t.Fatalf("failed slot = %s, want null", resp.Results[1])
	}
	for _, i := range []int{0, 2} {
		offline, _, err := OfflineResult(ExperimentRequest{Design: "fft", Tiles: 2, Run: req.Experiments[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Results[i], bytes.TrimSuffix(offline, []byte("\n"))) {
			t.Fatalf("sweep result %d differs from offline run", i)
		}
	}
}

// TestRequestBodyCap: a body over maxBodyBytes is refused on both POST
// endpoints with 413 body-too-large before any work is admitted, while a
// normal request is still served byte-identical to OfflineResult.
func TestRequestBodyCap(t *testing.T) {
	s := newServer(t, Config{})
	oversized := map[string]any{"design": "fft", "tiles": 2, "pad": strings.Repeat("x", 2<<20)}
	for _, path := range []string{"/v1/experiments", "/v1/sweeps"} {
		rec := post(t, s.Handler(), path, oversized)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %s", path, rec.Code, rec.Body.String())
		}
		var e ErrorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != "body-too-large" {
			t.Fatalf("%s: error kind %q, want body-too-large", path, e.Kind)
		}
	}
	if st := statsOf(t, s); st.Served != 0 || st.Compiles != 0 {
		t.Fatalf("oversized bodies did work: served %d, compiles %d", st.Served, st.Compiles)
	}
	req := ExperimentRequest{Design: "fft", Tiles: 2}
	offline, _, err := OfflineResult(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s.Handler(), "/v1/experiments", req)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), offline) {
		t.Fatalf("status %d: served body differs from the offline run", rec.Code)
	}
}

// TestRequestLimits: tiles, maxCycles and the sweep experiment count
// above their caps are refused on both POST endpoints with 422
// over-limit before any work is admitted, and the typed *LimitError
// names the field; a request exactly at each cap is still served
// byte-identical to OfflineResult.
func TestRequestLimits(t *testing.T) {
	s := newServer(t, Config{})
	runs := func(n int) []RunSpec {
		out := make([]RunSpec, n)
		for i := range out {
			out[i] = RunSpec{Contention: "M1=bernoulli:0.30/1", Seed: uint64(i + 1)}
		}
		return out
	}
	over := []struct {
		name  string
		path  string
		body  any
		field string
	}{
		{"experiment tiles", "/v1/experiments",
			ExperimentRequest{Design: "fft", Tiles: MaxTiles + 1}, "tiles"},
		{"experiment maxCycles", "/v1/experiments",
			ExperimentRequest{Design: "fft", Tiles: 2, Run: RunSpec{MaxCycles: MaxCycles + 1}}, "maxCycles"},
		{"sweep experiments", "/v1/sweeps",
			SweepRequest{Design: "fft", Tiles: 2, Experiments: runs(MaxSweepExperiments + 1)}, "experiments"},
		{"sweep tiles", "/v1/sweeps",
			SweepRequest{Design: "fft", Tiles: MaxTiles + 1, Experiments: runs(1)}, "tiles"},
		{"sweep maxCycles", "/v1/sweeps",
			SweepRequest{Design: "fft", Tiles: 2, Experiments: append(runs(2), RunSpec{MaxCycles: MaxCycles + 1})}, "maxCycles"},
	}
	for _, tc := range over {
		rec := post(t, s.Handler(), tc.path, tc.body)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422: %s", tc.name, rec.Code, rec.Body.String())
		}
		var e ErrorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != "over-limit" || !strings.Contains(e.Error, tc.field) {
			t.Fatalf("%s: error %+v, want over-limit naming %s", tc.name, e, tc.field)
		}
		var err error
		switch req := tc.body.(type) {
		case ExperimentRequest:
			_, _, err = OfflineResult(req)
		case SweepRequest:
			err = checkSweepLimits(req)
		}
		var lim *LimitError
		if !errors.As(err, &lim) || lim.Field != tc.field || lim.Got <= lim.Limit {
			t.Fatalf("%s: error %v, want a *LimitError on %s", tc.name, err, tc.field)
		}
	}
	if st := statsOf(t, s); st.Served != 0 || st.Compiles != 0 {
		t.Fatalf("over-limit requests did work: served %d, compiles %d", st.Served, st.Compiles)
	}

	for _, req := range []ExperimentRequest{
		{Design: "fft", Tiles: MaxTiles},
		{Design: "fft", Tiles: 2, Run: RunSpec{MaxCycles: MaxCycles}},
	} {
		offline, _, err := OfflineResult(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := post(t, s.Handler(), "/v1/experiments", req)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), offline) {
			t.Fatalf("%+v at the limit: status %d, or served body differs from the offline run", req, rec.Code)
		}
	}
	sweep := SweepRequest{Design: "fft", Tiles: 2, Experiments: runs(MaxSweepExperiments)}
	sweep.Experiments[0].MaxCycles = MaxCycles
	rec := post(t, s.Handler(), "/v1/sweeps", sweep)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep at the limit: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != nil || len(resp.Results) != MaxSweepExperiments {
		t.Fatalf("sweep at the limit: %d results, error %+v", len(resp.Results), resp.Error)
	}
	for i, rs := range sweep.Experiments {
		offline, _, err := OfflineResult(ExperimentRequest{Design: "fft", Tiles: 2, Run: rs})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Results[i], bytes.TrimSuffix(offline, []byte("\n"))) {
			t.Fatalf("sweep result %d differs from offline run", i)
		}
	}
}

// TestDrainRejectsNewWork covers the graceful-shutdown half of
// admission: after Drain, new experiments get the typed 503 and the
// stats report draining.
func TestDrainRejectsNewWork(t *testing.T) {
	s := newServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain of an idle server: %v", err)
	}
	rec := post(t, s.Handler(), "/v1/experiments", ExperimentRequest{Design: "fft", Tiles: 2})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", rec.Code)
	}
	var e ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Kind != "draining" {
		t.Fatalf("post-drain body %q lacks draining kind", rec.Body.String())
	}
	if st := statsOf(t, s); !st.Draining || st.RejectedDraining != 1 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

// TestDrainWaitsForInflight proves drain is graceful, not abrupt: an
// experiment admitted before Drain completes, and Drain returns only
// after it has.
func TestDrainWaitsForInflight(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	if err := s.adm.acquire(context.Background(), "interactive"); err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("drain returned with work in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.adm.release()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed after the in-flight experiment finished")
	}
}

// TestAdmissionWeightedOrder pins the QoS knob: with one execution slot
// and queued work in both classes, the wrr quanta decide the dispatch
// ratio. The dispatch chain is sequential (each grantee releases before
// the next grant), so the observed order is deterministic.
func TestAdmissionWeightedOrder(t *testing.T) {
	adm, err := newAdmission([]Class{{Name: "fast", Weight: 2}, {Name: "slow", Weight: 1}}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot so every subsequent acquire queues.
	if err := adm.acquire(context.Background(), "fast"); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 6)
	var wg sync.WaitGroup
	enqueue := func(class string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := adm.acquire(context.Background(), class); err != nil {
				t.Errorf("acquire %s: %v", class, err)
				return
			}
			order <- class
			adm.release()
		}()
		// Wait until this waiter is actually queued so queue order is
		// deterministic.
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, queued, _ := adm.snapshot()
			if queued[class] >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiter for %s never queued", class)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Interleave so each class's FIFO holds 3 waiters: f f f s s s by
	// queue, dispatched under wrr 2:1.
	for i := 0; i < 3; i++ {
		enqueue("fast")
	}
	for i := 0; i < 3; i++ {
		enqueue("slow")
	}
	adm.release() // free the slot; the dispatch chain drains both queues
	wg.Wait()
	close(order)
	var got []string
	for c := range order {
		got = append(got, c)
	}
	want := []string{"fast", "fast", "slow", "fast", "slow", "slow"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v (wrr 2:1)", got, want)
	}
}

// TestAdmissionTypedErrors pins the error taxonomy callers branch on.
func TestAdmissionTypedErrors(t *testing.T) {
	adm, err := newAdmission([]Class{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var unknown *UnknownClassError
	if err := adm.acquire(context.Background(), "nope"); !errors.As(err, &unknown) || unknown.Class != "nope" {
		t.Fatalf("unknown class error = %v", err)
	}
	if err := adm.acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	// Slot held; one waiter fits the depth-1 queue, the next is typed
	// queue-full.
	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan error, 1)
	go func() { waiting <- adm.acquire(ctx, "a") }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, queued, _ := adm.snapshot()
		if queued["a"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	var full *QueueFullError
	if err := adm.acquire(context.Background(), "a"); !errors.As(err, &full) || full.Class != "a" {
		t.Fatalf("queue-full error = %v", err)
	}
	// Cancelling the queued waiter surfaces ctx.Err and leaves the
	// queue clean.
	cancel()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", err)
	}
	if _, queued, _ := adm.snapshot(); queued["a"] != 0 {
		t.Fatalf("cancelled waiter still queued: %v", queued)
	}
	adm.release()
}

// TestLoadTestHarness exercises the loadtest client against a real
// HTTP listener end to end: all requests resolve, the cache serves
// every repeat, and the report's accounting is consistent.
func TestLoadTestHarness(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rep, err := LoadTest(LoadTestOptions{URL: ts.URL, Requests: 60, Concurrency: 8, Tiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.OK + rep.RejectedFull + rep.RejectedDraining + rep.Failed; got != rep.Requests {
		t.Fatalf("report accounts for %d of %d requests", got, rep.Requests)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d requests failed outright", rep.Failed)
	}
	if rep.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1 (one design, compiled once)", rep.Compiles)
	}
	if rep.OK > 0 && (rep.P50 <= 0 || rep.P99 < rep.P50) {
		t.Fatalf("implausible latency percentiles: p50=%v p99=%v", rep.P50, rep.P99)
	}
	if rep.CacheHits+rep.CacheMisses != int64(rep.OK) {
		t.Fatalf("cache hits+misses = %d, want %d (every served request consults the cache)",
			rep.CacheHits+rep.CacheMisses, rep.OK)
	}
}
