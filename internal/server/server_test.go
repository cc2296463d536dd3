package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Small, fast request shapes used throughout: a 1x2x2 host keeps every
// simulation to a few milliseconds while still exercising SMT pairing.
func smallDensity() *Request {
	return &Request{Kind: KindDensity, Topology: "1x2x2", VMs: 3}
}
func smallStorm() *Request {
	return &Request{Kind: KindStorm, Topology: "1x2x2", VMs: 4, Storms: 3}
}
func smallFleet() *Request {
	return &Request{Kind: KindFleet, Topology: "1x2x2", DurMs: 2}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.SimWorkers == 0 {
		cfg.SimWorkers = 1
	}
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		hs.Close()
	})
	return s, NewClient(hs.URL)
}

// TestCacheHitByteIdentical is the tentpole acceptance check: for the
// density, storm, and fleet-replay endpoints (the first two across all
// four paper modes — Canonicalize defaults Modes to the full set),
// resubmitting an identical request must return a cache hit whose bytes
// equal the cold run's. The pair costs the cache one miss and one hit.
// TestColdRunsAgreeAcrossServers pins the other half: those bytes are
// determinism, not just storage.
func TestCacheHitByteIdentical(t *testing.T) {
	reqs := map[string]func() *Request{
		"density": smallDensity,
		"storm":   smallStorm,
		"fleet":   smallFleet,
	}
	ctx := context.Background()
	s, c1 := newTestServer(t, Config{Workers: 2})
	for name, mk := range reqs {
		before := s.Cache().Stats()
		cold, err := c1.Submit(ctx, mk())
		if err != nil {
			t.Fatalf("%s cold submit: %v", name, err)
		}
		if cold.Cached {
			t.Fatalf("%s: first run claims cached", name)
		}
		if err := c1.Stream(ctx, cold.ID, nil); err != nil {
			t.Fatalf("%s stream: %v", name, err)
		}
		coldBytes, err := c1.ResultBytes(ctx, cold.ID)
		if err != nil {
			t.Fatalf("%s cold result: %v", name, err)
		}

		hit, err := c1.Submit(ctx, mk())
		if err != nil {
			t.Fatalf("%s resubmit: %v", name, err)
		}
		if !hit.Cached {
			t.Errorf("%s: resubmit was not a cache hit", name)
		}
		if hit.Digest != cold.Digest {
			t.Errorf("%s: digests differ across submissions", name)
		}
		hitBytes, err := c1.ResultBytes(ctx, hit.ID)
		if err != nil {
			t.Fatalf("%s hit result: %v", name, err)
		}
		if !bytes.Equal(coldBytes, hitBytes) {
			t.Errorf("%s: cache hit not byte-identical to cold run:\n--- cold\n%s\n--- hit\n%s",
				name, coldBytes, hitBytes)
		}
		after := s.Cache().Stats()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 1 {
			t.Errorf("%s: a cold run and a hit read hits=%d misses=%d, want 1 and 1", name, hits, misses)
		}
	}
}

// TestFleetShardCountIsACacheHit: the host has one engine, so a fleet
// request that differs from a cached one only in its shard count is the
// same experiment — served from the cache, byte for byte.
func TestFleetShardCountIsACacheHit(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, Config{Workers: 2})
	plain := &Request{Kind: KindFleet, Topology: "2x2x2", DurMs: 2}
	cold, err := c.Submit(ctx, plain)
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	if err := c.Stream(ctx, cold.ID, nil); err != nil {
		t.Fatalf("stream: %v", err)
	}
	coldBytes, err := c.ResultBytes(ctx, cold.ID)
	if err != nil {
		t.Fatalf("cold result: %v", err)
	}

	sharded := &Request{Kind: KindFleet, Topology: "2x2x2", DurMs: 2, Shards: 4}
	hit, err := c.Submit(ctx, sharded)
	if err != nil {
		t.Fatalf("shards=4 submit: %v", err)
	}
	if !hit.Cached || hit.Digest != cold.Digest {
		t.Fatalf("shards=4 request was not a cache hit on the default one: cached=%v digest %s vs %s",
			hit.Cached, hit.Digest, cold.Digest)
	}
	hitBytes, err := c.ResultBytes(ctx, hit.ID)
	if err != nil {
		t.Fatalf("hit result: %v", err)
	}
	if !bytes.Equal(coldBytes, hitBytes) {
		t.Errorf("shards=4 hit not byte-identical:\n--- cold\n%s\n--- hit\n%s", coldBytes, hitBytes)
	}
}

// TestColdRunsAgreeAcrossServers runs the same request on two fresh
// servers and byte-compares: cache identity rests on run determinism.
func TestColdRunsAgreeAcrossServers(t *testing.T) {
	ctx := context.Background()
	for name, mk := range map[string]func() *Request{
		"density": smallDensity, "storm": smallStorm, "fleet": smallFleet,
	} {
		var runs [][]byte
		for i := 0; i < 2; i++ {
			_, c := newTestServer(t, Config{Workers: 1})
			sub, err := c.Submit(ctx, mk())
			if err != nil {
				t.Fatalf("%s submit: %v", name, err)
			}
			if err := c.Stream(ctx, sub.ID, nil); err != nil {
				t.Fatalf("%s stream: %v", name, err)
			}
			b, err := c.ResultBytes(ctx, sub.ID)
			if err != nil {
				t.Fatalf("%s result: %v", name, err)
			}
			runs = append(runs, b)
		}
		if !bytes.Equal(runs[0], runs[1]) {
			t.Errorf("%s: cold runs differ across servers:\n%s\n%s", name, runs[0], runs[1])
		}
	}
}

// TestSingleflightCoalescing: concurrent identical submissions share
// one job and one simulation.
func TestSingleflightCoalescing(t *testing.T) {
	release := make(chan struct{})
	var execs int32
	var mu sync.Mutex
	s, c := newTestServer(t, Config{Workers: 2, Queue: 8})
	s.runHook = func(ctx context.Context, req *Request) error {
		mu.Lock()
		execs++
		mu.Unlock()
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ctx := context.Background()

	first, err := c.Submit(ctx, smallStorm())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked it up so the twin can't race past.
	waitState(t, c, first.ID, StateRunning)

	twin, err := c.Submit(ctx, smallStorm())
	if err != nil {
		t.Fatal(err)
	}
	if twin.ID != first.ID {
		t.Errorf("identical submission got a new job: %s vs %s", twin.ID, first.ID)
	}
	close(release)
	if err := c.Stream(ctx, first.ID, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if execs != 1 {
		t.Errorf("coalesced request simulated %d times, want 1", execs)
	}
}

func waitState(t *testing.T, c *Client, id, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
}

// TestQueueFull429: with one worker blocked and a one-slot queue, a
// third distinct submission must bounce with 429 and Retry-After.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	s, c := newTestServer(t, Config{Workers: 1, Queue: 1})
	s.runHook = func(ctx context.Context, req *Request) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer close(release)
	ctx := context.Background()

	r1, err := c.Submit(ctx, smallStorm())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, r1.ID, StateRunning) // worker slot taken
	storm2 := smallStorm()
	storm2.Seed = 7
	if _, err := c.Submit(ctx, storm2); err != nil { // queue slot taken
		t.Fatal(err)
	}

	storm3 := smallStorm()
	storm3.Seed = 8
	b, _ := json.Marshal(storm3)
	resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
}

// TestDrainFinishesAcceptedJobs: Shutdown must let every accepted job
// reach done, and post-drain submissions must bounce with 503.
func TestDrainFinishesAcceptedJobs(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, Queue: 8})
	ctx := context.Background()

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		r := smallStorm()
		r.Seed = seed
		sub, err := c.Submit(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}

	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("job %s dropped by drain: state %s (%s)", id, st.State, st.Error)
		}
	}

	if _, err := c.Submit(ctx, smallDensity()); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Errorf("post-drain submit: want 503, got %v", err)
	}
}

// TestJobTimeout: a job that overruns its per-job budget is canceled,
// and its result endpoint reports the failure.
func TestJobTimeout(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, JobTimeout: 20 * time.Millisecond})
	s.runHook = func(ctx context.Context, req *Request) error {
		<-ctx.Done() // overrun until the budget expires
		return ctx.Err()
	}
	ctx := context.Background()
	sub, err := c.Submit(ctx, smallStorm())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stream(ctx, sub.ID, nil); err != nil {
		t.Fatal(err)
	}
	st, err := c.Job(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, err := c.ResultBytes(ctx, sub.ID); err == nil {
		t.Error("result of a canceled job must error")
	}
	// The canceled result must not have been cached.
	if got := s.Cache().Stats().Entries; got != 0 {
		t.Errorf("canceled job cached: %d entries", got)
	}
}

// TestPanicFailsOnlyItsJob: a panic inside a job fails that job with
// the panic text, the same worker then completes a normal job, and the
// failed request is not cached — resubmitting it runs it again.
func TestPanicFailsOnlyItsJob(t *testing.T) {
	const replay = "exp: run failed (seed=7 faults=\"none\" fault-seed=0): boom"
	s, c := newTestServer(t, Config{Workers: 1})
	var mu sync.Mutex
	runs := 0
	s.runHook = func(ctx context.Context, req *Request) error {
		if req.Kind == KindStorm {
			mu.Lock()
			runs++
			mu.Unlock()
			panic(replay)
		}
		return nil
	}
	ctx := context.Background()
	finish := func(req *Request) *JobStatus {
		t.Helper()
		sub, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Cached {
			t.Fatalf("%s request answered from the cache", req.Kind)
		}
		if err := c.Stream(ctx, sub.ID, nil); err != nil {
			t.Fatal(err)
		}
		st, err := c.Job(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := finish(smallStorm())
	if st.State != StateFailed || !strings.Contains(st.Error, replay) {
		t.Fatalf("panicking job: state %s, error %q; want failed with %q", st.State, st.Error, replay)
	}
	if st := finish(smallDensity()); st.State != StateDone {
		t.Fatalf("job after the panic: state %s (%s), want done", st.State, st.Error)
	}
	if st := finish(smallStorm()); st.State != StateFailed {
		t.Fatalf("resubmitted panicking job: state %s, want failed", st.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 2 {
		t.Errorf("panicking request ran %d times, want 2 (a failure must not be cached)", runs)
	}
}

// TestBadRequests: malformed submissions get structured 400 bodies the
// client surfaces with field/reason/hint intact.
func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		req  *Request
		want []string
	}{
		{"bad mode", &Request{Kind: KindStorm, Modes: []string{"vmx"}},
			[]string{"mode", "unknown mode", "baseline, sw-svt"}},
		{"bad topology", &Request{Kind: KindStorm, Topology: "axb"},
			[]string{"topology", "not a number", "sockets x cores"}},
		{"bad kind", &Request{Kind: "frobnicate"},
			[]string{"kind", "unknown request kind"}},
	} {
		_, err := c.Submit(ctx, tc.req)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q missing %q", tc.name, err, want)
			}
		}
	}

	// Unknown JSON fields are rejected, not silently dropped (they would
	// otherwise canonicalize into a surprising digest). fault_rate is
	// one: the rate shorthand is spelled as a faults spec.
	// So is anything after the request object: a second object would
	// otherwise be dropped without a word.
	for _, body := range []string{
		`{"kind":"storm","smt":"on"}`,
		`{"kind":"storm","fault_rate":0.1}`,
		`{"kind":"fleet","dur_ms":1} trailing`,
		`{"kind":"fleet","dur_ms":1}{"kind":"fleet","dur_ms":2}`,
		`{"kind":"fleet","dur_ms":1}}`,
	} {
		resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Topologies whose context count overflows int are refused up front,
	// not run into a failing job.
	for _, topo := range []string{"4294967296x4294967296x1", "2x9223372036854775807x2"} {
		body := `{"kind":"density","topology":"` + topo + `"}`
		resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("topology %s: status %d, want 400", topo, resp.StatusCode)
		}
	}
}

// TestStreamAndStatus: the progress stream is ordered, ends with the
// terminal event, and replays in full to a late subscriber.
func TestStreamAndStatus(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	sub, err := c.Submit(ctx, smallStorm())
	if err != nil {
		t.Fatal(err)
	}
	var evs []ProgressEvent
	if err := c.Stream(ctx, sub.ID, func(e ProgressEvent) { evs = append(evs, e) }); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no events streamed")
	}
	for i, e := range evs {
		if e.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	last := evs[len(evs)-1]
	if last.State != StateDone {
		t.Errorf("last event state = %q, want done", last.State)
	}

	// A late subscriber replays the full log (stream after completion).
	var replay []ProgressEvent
	if err := c.Stream(ctx, sub.ID, func(e ProgressEvent) { replay = append(replay, e) }); err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(evs) {
		t.Errorf("replayed %d events, want %d", len(replay), len(evs))
	}
}

// TestStreamLongEvent: the client's scanner starts small and grows, so
// an event line longer than 64 KB still decodes, beside short ones.
func TestStreamLongEvent(t *testing.T) {
	detail := strings.Repeat("x", 100<<10)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		for _, ev := range []ProgressEvent{
			{Seq: 1, Stage: "run"},
			{Seq: 2, Detail: detail},
			{Seq: 3, State: StateDone},
		} {
			if err := enc.Encode(ev); err != nil {
				t.Error(err)
			}
		}
	}))
	defer hs.Close()
	var evs []ProgressEvent
	if err := NewClient(hs.URL).Stream(context.Background(), "j", func(e ProgressEvent) { evs = append(evs, e) }); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("streamed %d events, want 3", len(evs))
	}
	if evs[1].Detail != detail || evs[2].State != StateDone {
		t.Fatalf("second event carries %d B of detail, want %d; last state %q", len(evs[1].Detail), len(detail), evs[2].State)
	}
}

// TestTerminalStateCarriesItsEvent races finish against a reader of the
// log: a reader that finds the job terminal must also find the terminal
// event at the log's end, or handleStream, which stops at the terminal
// state, could close a stream before its last event.
func TestTerminalStateCarriesItsEvent(t *testing.T) {
	for i := 0; i < 5000; i++ {
		j := newJob("j", smallFleet(), "digest")
		go j.finish(StateDone, nil, "")
		for {
			evs, terminal := j.eventsFrom(0)
			if !terminal {
				continue
			}
			if len(evs) == 0 || evs[len(evs)-1].State != StateDone {
				t.Fatalf("run %d: job terminal with log %+v", i, evs)
			}
			break
		}
	}
}

// TestTraceArtifacts: trace=true jobs expose Perfetto + metrics
// artifacts, byte-identical between cold run and cache hit.
func TestTraceArtifacts(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	mk := func() *Request {
		return &Request{Kind: KindWorkload, Workload: "cpuid", N: 50,
			Modes: []string{"hw"}, Trace: true}
	}
	sub, err := c.Submit(ctx, mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stream(ctx, sub.ID, nil); err != nil {
		t.Fatal(err)
	}
	trace, err := c.Artifact(ctx, sub.ID, "trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), "traceEvents") {
		t.Errorf("trace artifact malformed: %.120s", trace)
	}
	csv, err := c.Artifact(ctx, sub.ID, "metrics.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(csv) == 0 {
		t.Error("empty metrics.csv artifact")
	}

	hit, err := c.Submit(ctx, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("trace resubmit missed the cache")
	}
	trace2, err := c.Artifact(ctx, hit.ID, "trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trace, trace2) {
		t.Error("cached trace artifact not byte-identical")
	}

	// Artifacts 404 with a hint when the job wasn't traced.
	plain, err := c.Submit(ctx, smallStorm())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stream(ctx, plain.ID, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Artifact(ctx, plain.ID, "trace.json"); err == nil ||
		!strings.Contains(err.Error(), "trace=true") {
		t.Errorf("untraced artifact fetch: want 404 with hint, got %v", err)
	}
}

// TestJobTableBounded: terminal jobs are forgotten oldest first beyond
// keepJobs, so cache hits cannot grow the job table without bound; a
// forgotten ID answers 404 like an unknown one.
func TestJobTableBounded(t *testing.T) {
	ctx := context.Background()
	s, c := newTestServer(t, Config{Workers: 1})
	cold, err := c.Submit(ctx, smallStorm())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stream(ctx, cold.ID, nil); err != nil {
		t.Fatal(err)
	}
	var last *SubmitResponse
	for i := 0; i <= keepJobs; i++ {
		if last, err = c.Submit(ctx, smallStorm()); err != nil {
			t.Fatal(err)
		}
		if !last.Cached {
			t.Fatalf("submission %d was not a cache hit", i)
		}
	}
	if _, err := c.Job(ctx, cold.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("oldest job %s: want 404, got %v", cold.ID, err)
	}
	if _, err := c.ResultBytes(ctx, last.ID); err != nil {
		t.Errorf("newest job %s: %v", last.ID, err)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != keepJobs {
		t.Errorf("job table holds %d jobs after %d terminal ones, want %d", n, keepJobs+2, keepJobs)
	}
}

// TestConcurrentDistinctRequests floods the server with distinct
// requests; all must finish done with correct per-request digests.
// Meaningful under -race (CI runs this package with the detector on).
func TestConcurrentDistinctRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4, Queue: 64})
	ctx := context.Background()
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := smallStorm()
			r.Seed = int64(100 + i)
			_, res, err := c.Run(ctx, r, nil)
			if err != nil {
				errs <- fmt.Errorf("seed %d: %w", 100+i, err)
				return
			}
			if res.Kind != KindStorm || len(res.Lines) == 0 {
				errs <- fmt.Errorf("seed %d: bad result %+v", 100+i, res)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAllKindsServe smoke-runs every request kind end to end through
// the HTTP layer.
func TestAllKindsServe(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	for name, req := range map[string]*Request{
		"density":  smallDensity(),
		"storm":    smallStorm(),
		"fleet":    smallFleet(),
		"check":    {Kind: KindCheck, Schedules: 2},
		"workload": {Kind: KindWorkload, Workload: "netrr", N: 50, Topology: "1x2x2", Modes: []string{"sw", "hw"}},
		"lb":       {Kind: KindLB, Topology: "1x2x2", VMs: 2, Modes: []string{"baseline", "hw"}},
	} {
		_, res, err := c.Run(ctx, req, nil)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(res.Lines) == 0 {
			t.Errorf("%s: empty result", name)
		}
	}

	// Metrics and cache stats respond after traffic.
	cs, err := c.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Entries == 0 {
		t.Error("cache empty after six distinct jobs")
	}
	resp, err := http.Get(c.BaseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	if !strings.Contains(b.String(), "http.submit.requests") {
		t.Errorf("metrics missing endpoint counters:\n%s", b.String())
	}
}
