package server

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"svtsim/internal/exp"
	"svtsim/internal/obs"
)

// memoTestRequests is a mixed sequence of density, storm and lb requests
// across both ports, a healthy and a faulted spec (under two fault
// seeds) and two topologies. The wakeup loss changes every SW-SVt VM's
// run, so a memo shared across fault specs or seeds would serve the
// wrong runs.
func memoTestRequests() []*Request {
	type faults struct {
		spec string
		seed int64
	}
	var reqs []*Request
	modes := []string{"baseline", "sw-svt"}
	for _, topo := range []string{"1x2x2", "2x2x1"} {
		for _, port := range []string{"", "armlike"} {
			for _, f := range []faults{{}, {"swsvt/wakeup:rate=0.3,drop", 1}, {"swsvt/wakeup:rate=0.3,drop", 2}} {
				base := Request{Topology: topo, Port: port, Modes: modes, Faults: f.spec, FaultSeed: f.seed}
				density, storm, lb := base, base, base
				density.Kind, density.VMs = KindDensity, 3
				storm.Kind, storm.VMs, storm.Storms = KindStorm, 3, 3
				lb.Kind, lb.VMs = KindLB, 2
				reqs = append(reqs, &density, &storm, &lb)
			}
		}
	}
	for _, r := range reqs {
		if err := r.Canonicalize(); err != nil {
			panic(err)
		}
	}
	return reqs
}

// freshLines runs a canonical request on a fresh session, as the CLI
// does.
func freshLines(t *testing.T, req *Request) []string {
	t.Helper()
	lines, _, err := Run(context.Background(), req, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestServerMemoTransparent: one server serving a mixed sequence of
// density, storm and lb requests, which share phase-1 memos per port
// and fault spec, returns for every request exactly the lines a fresh
// session computes for it alone.
func TestServerMemoTransparent(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	reqs := memoTestRequests()
	for _, req := range reqs {
		_, res, err := c.Run(ctx, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshLines(t, req); !slices.Equal(res.Lines, want) {
			t.Errorf("%s port=%q faults=%q seed=%d topo=%s: served lines diverge from a fresh session's:\n%s\nvs\n%s",
				req.Kind, req.Port, req.Faults, req.FaultSeed, req.Topology, res.Lines, want)
		}
	}
	if got := len(s.memos.memos); got != 6 {
		t.Errorf("server keeps %d memos, want 6: one per port and fault spec", got)
	}
}

// TestServerMemoIsolation: requests share a memo exactly when their
// port, fault spec and fault seed agree. Topology and the modes do not
// split memos, and a traced request or a kind with no phase-1 runs gets
// none.
func TestServerMemoIsolation(t *testing.T) {
	var ms memoSet
	req := func(edit func(r *Request)) *Request {
		r := &Request{Kind: KindDensity, Topology: "1x2x2", Faults: "apic/ipi:rate=0.5,drop", FaultSeed: 3}
		if edit != nil {
			edit(r)
		}
		if err := r.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := ms.get(req(nil))
	if base == nil {
		t.Fatal("a density request got no memo")
	}
	for name, edit := range map[string]func(r *Request){
		"storm":    func(r *Request) { r.Kind, r.VMs, r.Storms = KindStorm, 4, 2 },
		"lb":       func(r *Request) { r.Kind = KindLB },
		"topology": func(r *Request) { r.Topology = "2x8x2" },
		"modes":    func(r *Request) { r.Modes = []string{"sw-svt"} },
	} {
		if got := ms.get(req(edit)); got != base {
			t.Errorf("%s: got another memo", name)
		}
	}
	for name, edit := range map[string]func(r *Request){
		"port":       func(r *Request) { r.Port = "armlike" },
		"fault spec": func(r *Request) { r.Faults = "apic/ipi:rate=0.25,drop" },
		"fault seed": func(r *Request) { r.FaultSeed = 4 },
		"no faults":  func(r *Request) { r.Faults, r.FaultSeed = "", 0 },
	} {
		if got := ms.get(req(edit)); got == nil || got == base {
			t.Errorf("%s: shares the memo", name)
		}
	}
	for name, edit := range map[string]func(r *Request){
		"traced":   func(r *Request) { r.Trace = true },
		"workload": func(r *Request) { r.Kind = KindWorkload },
		"fleet":    func(r *Request) { r.Kind = KindFleet },
		"check":    func(r *Request) { r.Kind = KindCheck },
	} {
		if got := ms.get(req(edit)); got != nil {
			t.Errorf("%s: got a memo", name)
		}
	}
}

// TestServerMemoTracedRunsItsVMs: a traced request served after an
// untraced one of the same configuration runs its own VMs, so its plane,
// and the artifacts rendered from it, are those of a fresh traced run.
func TestServerMemoTracedRunsItsVMs(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	mk := func(trace bool) *Request {
		r := smallDensity()
		r.Trace = trace
		if err := r.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	if _, _, err := c.Run(ctx, mk(false), nil); err != nil {
		t.Fatal(err)
	}
	sub, _, err := c.Run(ctx, mk(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := c.Artifact(ctx, sub.ID, obs.ArtifactTrace)
	if err != nil {
		t.Fatalf("traced request after a memo-warming one: %v", err)
	}
	_, plane, err := Run(ctx, mk(true), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := obs.RenderArtifacts(plane)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trace, want[obs.ArtifactTrace]) {
		t.Error("served trace differs from a fresh traced run's")
	}
}

// TestMemoSetBounded: the server keeps at most keepMemos memos and drops
// the least recently used one first.
func TestMemoSetBounded(t *testing.T) {
	var ms memoSet
	req := func(i int) *Request {
		return &Request{Kind: KindDensity, Faults: "apic/ipi:rate=0.5,drop", FaultSeed: int64(i)}
	}
	first := make([]*exp.Memo, keepMemos)
	for i := range first {
		first[i] = ms.get(req(i))
	}
	ms.get(req(0)) // 0 is now the most recently used; 1 the least
	ms.get(req(keepMemos))
	if got := len(ms.memos); got != keepMemos {
		t.Fatalf("%d memos kept, want %d", got, keepMemos)
	}
	if ms.get(req(0)) != first[0] {
		t.Error("the most recently used memo was dropped")
	}
	for i := 2; i < keepMemos; i++ {
		if ms.get(req(i)) != first[i] {
			t.Errorf("memo %d was dropped", i)
		}
	}
	if ms.get(req(1)) == first[1] {
		t.Error("the least recently used memo survived the overflow")
	}
}

// TestServerMemoConcurrent: density, storm and lb jobs running at once
// on one memo, each fanning its VMs out on a two-wide pool, report what
// fresh sessions report. Meaningful under -race.
func TestServerMemoConcurrent(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 3, SimWorkers: 2, Queue: 16})
	ctx := context.Background()
	var reqs []*Request
	for i := 0; i < 3; i++ {
		density := &Request{Kind: KindDensity, Topology: "1x2x2", VMs: 3 + i, Modes: []string{"sw-svt", "hw-svt"}}
		storm := &Request{Kind: KindStorm, Topology: "1x2x2", VMs: 3, Storms: 2 + i, Modes: []string{"sw-svt", "hw-svt"}}
		lb := &Request{Kind: KindLB, Topology: "1x2x2", VMs: 2 + i, Modes: []string{"sw-svt", "hw-svt"}}
		reqs = append(reqs, density, storm, lb)
	}
	got := make([][]string, len(reqs))
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs))
	for i, req := range reqs {
		if err := req.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, res, err := c.Run(ctx, req, nil)
			if err != nil {
				errs <- fmt.Errorf("%s: %w", req.Kind, err)
				return
			}
			got[i] = res.Lines
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, req := range reqs {
		if want := freshLines(t, req); !slices.Equal(got[i], want) {
			t.Errorf("%s vms=%d: concurrent lines diverge from a fresh session's:\n%s\nvs\n%s", req.Kind, req.VMs, got[i], want)
		}
	}
}
