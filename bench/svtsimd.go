package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"svtsim/internal/exp"
	"svtsim/internal/hv"
	"svtsim/internal/server"
)

// The svtsimd workload serves jobs from an in-process server behind an
// httptest loopback listener. Two closed-loop clients each submit their
// own request stream; half of each stream repeats one of the client's
// own earlier requests, so the cache-hit count is fixed by the plan and
// no job ever coalesces with the other client's.

const (
	svtsimdClients = 2
	svtsimdBoots   = 20 // throwaway boots timed before each block of jobs
)

// newKinds are the request shapes a client draws new requests from.
var newKinds = []string{"density", "storm", "lb", "fleet", "cpuid", "netrr", "diskrd"}

// svtsimdPlan: each block gives each client one new request of every
// kind and as many repeats, in seeded order; a client's first job is
// always new. Every new request's digest is unique in the plan.
func svtsimdPlan(seed int64, blocks int) []cell {
	var plan []cell
	seen := map[string]bool{}
	var news [svtsimdClients][]int // plan indices of each client's new requests
	u := offsets(seed, svtsimdClients*len(newKinds))
	for b := 0; b < blocks; b++ {
		rng := blockRand(seed, b)
		for cl := 0; cl < svtsimdClients; cl++ {
			steps := make([]int, 0, 2*len(newKinds)) // index into newKinds, -1 for a repeat
			for k := range newKinds {
				steps = append(steps, k, -1)
			}
			rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
			if b == 0 && steps[0] < 0 {
				for i, k := range steps {
					if k >= 0 {
						steps[0], steps[i] = steps[i], steps[0]
						break
					}
				}
			}
			for _, k := range steps {
				c := cell{kind: "job", client: cl, repeat: -1}
				if k < 0 {
					c.repeat = news[cl][rng.Intn(len(news[cl]))]
					c.req, c.digest = plan[c.repeat].req, plan[c.repeat].digest
				} else {
					f := spread(u[cl*len(newKinds)+k], b)
					c.req, c.digest = uniqueRequest(rng, newKinds[k], 2*b+cl, f, seen)
					news[cl] = append(news[cl], len(plan))
				}
				plan = append(plan, c)
			}
		}
	}
	return plan
}

// uniqueRequest draws small requests of one kind until one has a digest
// not yet in the plan.
func uniqueRequest(rng *rand.Rand, kind string, slot int, f float64, seen map[string]bool) (*server.Request, string) {
	for {
		req := drawRequest(rng, kind, slot, f)
		if err := req.Canonicalize(); err != nil {
			panic(fmt.Sprintf("bench: generated an invalid %s request: %v", kind, err))
		}
		d := req.Digest()
		if !seen[d] {
			seen[d] = true
			return req, d
		}
	}
}

// drawRequest draws the new request of one kind for slot i (2 × block +
// client). Sizes step through four levels and the categorical choices
// cycle with the slot, so every seed asks for the same mix of work; f
// places the size inside its level, and the seed draws the experiment
// seeds.
func drawRequest(rng *rand.Rand, kind string, i int, f float64) *server.Request {
	modes := hv.AllModes()
	two := []string{modes[i%2].String(), modes[2+i/2%2].String()}
	scenarios := exp.LBScenarios()
	vms := 3 + i%4
	switch kind {
	case "density":
		return &server.Request{Kind: server.KindDensity, Topology: "1x2x2", Modes: two, VMs: vms, SLOUs: float64(300 + rng.Intn(400))}
	case "storm":
		return &server.Request{Kind: server.KindStorm, Topology: "1x2x2", Modes: two, VMs: vms, Storms: level(f, 2, 10, i%4, 4), Seed: 1 + rng.Int63n(1<<30)}
	case "lb":
		return &server.Request{Kind: server.KindLB, Topology: "1x2x2", Modes: two, VMs: vms, Scenario: scenarios[i%len(scenarios)], Seed: 1 + rng.Int63n(1<<30)}
	case "fleet":
		return &server.Request{Kind: server.KindFleet, Topology: "2x4x2", DurMs: level(f, 10, 30, i%4, 4), CrossEvery: 16 + rng.Intn(64)}
	case "cpuid":
		return &server.Request{Kind: server.KindWorkload, Workload: "cpuid", Port: cpuidPorts[i/4%2], N: level(f, 2000, 6000, i%4, 4)}
	default: // netrr, diskrd
		return &server.Request{Kind: server.KindWorkload, Workload: kind, N: level(f, 200, 600, i%4, 4)}
	}
}

// daemon is one booted server with its loopback listener and client.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *server.Client
}

// boot starts a server and returns once it answers /v1/healthz.
func boot() (*daemon, error) {
	srv := server.New(server.Config{Workers: 2, SimWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	d := &daemon{srv: srv, ts: ts, cl: server.NewClient(ts.URL)}
	d.cl.HTTP = ts.Client()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.cl.WaitHealthy(ctx, 5*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the server and closes the listener; both wait for every
// goroutine they own.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // a drain past the deadline cancels the jobs, which is all stop needs
	d.ts.Close()
}

// svtsimdReference serves one request of each kind on a throwaway
// server, so code paths are warm before the measured boots.
func svtsimdReference(r *runner) {
	d, err := boot()
	if err != nil {
		r.attempted++
		r.fail(-1, "boot", err)
		return
	}
	defer d.stop()
	rng := rand.New(rand.NewSource(-1))
	seen := map[string]bool{}
	for i, kind := range newKinds {
		req, digest := uniqueRequest(rng, kind, 0, rng.Float64(), seen)
		c := cell{idx: -1 - i, kind: "job", req: req, digest: digest, repeat: -1}
		r.guard(c, func() error {
			_, _, _, err := r.job(context.Background(), d.cl, nil, c, nil)
			return err
		})
	}
}

// svtsimdRun serves the plan from one server, a block of jobs at a time:
// both clients run their share of a block and wait for each other.
// Before each block, with no job running, it times svtsimdBoots
// throwaway boots for setup_s. A boot takes about 0.2 ms and its time
// swings by half from one second to the next, so boots spread over the
// whole run give a median that repeats, where boots at its start do not.
func svtsimdRun(r *runner, plan []cell) {
	d, err := boot()
	if err != nil {
		r.attempted++
		r.fail(-1, "boot", err)
		return
	}
	defer d.stop()

	ctx := context.Background()
	var (
		subs   [svtsimdClients]*runner
		tracks [svtsimdClients]*track
		cold   [svtsimdClients]map[int][]byte // each client's cold-run bodies, by plan index
	)
	for cl := range subs {
		subs[cl] = newRunner(r.cfg, r.spans)
		tracks[cl] = r.spans.newTrack()
		cold[cl] = map[int][]byte{}
	}
	block := svtsimdClients * 2 * len(newKinds) // as svtsimdPlan builds them
	for lo := 0; lo < len(plan); lo += block {
		r.calib = append(r.calib, calibKernel())
		runtime.GC()
		if err := r.bootSamples(); err != nil {
			r.attempted++
			r.fail(-1, "boot", err)
			return
		}
		var byClient [svtsimdClients][]cell
		for _, c := range plan[lo:min(lo+block, len(plan))] {
			byClient[c.client] = append(byClient[c.client], c)
		}
		runtime.GC()
		var wg sync.WaitGroup
		before := memSnap()
		start := time.Now()
		for cl, sub := range subs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub.client(ctx, d.cl, tracks[cl], byClient[cl], cold[cl])
			}()
		}
		wg.Wait()
		r.busy += since(start)
		r.allocBytes += allocated(before, memSnap())
	}
	for _, sub := range subs {
		r.merge(sub)
	}
	st := d.srv.Cache().Stats()
	r.counts["server.cache_hits"] = float64(st.Hits)
	r.counts["server.cache_misses"] = float64(st.Misses)
	r.counts["server.cache_evictions"] = float64(st.Evictions)
	runtime.GC()
	r.liveHeap = memSnap().HeapAlloc

	for n, c := range plan {
		r.layerCalls(n, c)
	}
}

// bootSamples times svtsimdBoots boots of a throwaway server as setup_s
// samples.
func (r *runner) bootSamples() error {
	for i := 0; i < svtsimdBoots; i++ {
		start := time.Now()
		d, err := boot()
		if err != nil {
			return err
		}
		r.setups = append(r.setups, since(start))
		d.stop()
	}
	return nil
}

// client runs one closed-loop client over its jobs in order; cold holds
// the bodies of its cold runs, which its repeats must return.
func (r *runner) client(ctx context.Context, cl *server.Client, t *track, jobs []cell, cold map[int][]byte) {
	for _, c := range jobs {
		r.guard(c, func() error {
			body, wall, hit, err := r.job(ctx, cl, t, c, cold)
			if err != nil {
				return err
			}
			r.cellsDone++
			if hit {
				r.hitWalls = append(r.hitWalls, wall.Seconds())
			} else {
				r.walls = append(r.walls, wall.Seconds())
				cold[c.idx] = body
			}
			r.golden[c.idx] = fmt.Sprintf("%s sha=%x", c, sha256.Sum256(body))
			return nil
		})
	}
}

// job submits one request and follows it to its result bytes: the time
// from submit to bytes is the job's latency. A new request must miss the
// cache and return its own digest; a repeat must hit and return exactly
// the bytes of the cold run it repeats (cold is nil for reference jobs).
func (r *runner) job(ctx context.Context, cl *server.Client, t *track, c cell, cold map[int][]byte) (body []byte, wall time.Duration, hit bool, err error) {
	root := t.begin("cell.job."+jobKind(c), c.idx)
	defer t.end(root)
	start := time.Now()
	var sub *server.SubmitResponse
	t.timed("server.submit", c.idx, func() { sub, err = cl.Submit(ctx, c.req) })
	if err != nil {
		return nil, 0, false, err
	}
	if !sub.Cached {
		t.timed("server.wait", c.idx, func() { err = cl.Stream(ctx, sub.ID, nil) })
		if err != nil {
			return nil, 0, false, err
		}
	}
	t.timed("server.result", c.idx, func() { body, err = cl.ResultBytes(ctx, sub.ID) })
	wall = time.Since(start)
	if err != nil {
		return nil, 0, false, err
	}
	if c.repeat >= 0 {
		if !sub.Cached {
			return nil, 0, false, fmt.Errorf("repeat of cell %d missed the cache", c.repeat)
		}
		if want, ok := cold[c.repeat]; ok && !bytes.Equal(body, want) {
			return nil, 0, false, fmt.Errorf("cache hit returned %d bytes that differ from the cold run's %d", len(body), len(want))
		}
		return body, wall, true, nil
	}
	if sub.Cached {
		return nil, 0, false, fmt.Errorf("new request hit the cache")
	}
	var res server.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, 0, false, fmt.Errorf("result body: %w", err)
	}
	if res.Digest != c.digest || len(res.Lines) == 0 {
		return nil, 0, false, fmt.Errorf("result digest %.16s with %d lines, want digest %.16s", res.Digest, len(res.Lines), c.digest)
	}
	return body, wall, false, nil
}

// jobKind names a job for its span: the request kind (the workload for
// single-machine requests), or "repeat".
func jobKind(c cell) string {
	switch {
	case c.repeat >= 0:
		return "repeat"
	case c.req.Kind == server.KindWorkload:
		return c.req.Workload
	}
	return c.req.Kind
}

// merge folds one client's accumulators into the run's.
func (r *runner) merge(o *runner) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
	for i, line := range o.golden {
		r.golden[i] = line
	}
	r.cellsDone += o.cellsDone
	r.walls = append(r.walls, o.walls...)
	r.hitWalls = append(r.hitWalls, o.hitWalls...)
}
