package host

import (
	"strings"
	"testing"

	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

func mustHost(t *testing.T, topo Topology) *Host {
	t.Helper()
	h, err := New(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestIPILatencyByDistance: delivery latency rises with topological
// distance, and each send lands on the target LAPIC after exactly the
// distance-class latency.
func TestIPILatencyByDistance(t *testing.T) {
	h := mustHost(t, Topology{2, 2, 2})
	cases := []struct {
		to   CtxID
		want sim.Time
	}{
		{0, ipiSelf},      // self
		{1, ipiSMT},       // sibling
		{2, ipiCrossCore}, // other core, same socket
		{4, ipiCrossNUMA}, // other socket
	}
	for _, c := range cases {
		start := h.Eng.Now()
		var arrived sim.Time
		h.OnIPI(c.to, func(vec int) {
			arrived = h.Eng.Now()
			h.LAPIC(c.to).Ack(vec)
		})
		h.SendIPI(0, c.to, ports.VecIPI)
		h.Eng.Drain(100)
		if got := arrived - start; got != c.want {
			t.Errorf("IPI 0->%d latency = %d, want %d", c.to, got, c.want)
		}
	}
	self, smt, cc, cn := h.IPIsSent()
	if self != 1 || smt != 1 || cc != 1 || cn != 1 {
		t.Errorf("IPIsSent = %d/%d/%d/%d, want 1 each", self, smt, cc, cn)
	}
	for ctx, n := range h.IPIsReceived()[:5] {
		want := uint64(0)
		if ctx <= 4 && ctx != 3 {
			want = 1
		}
		if n != want {
			t.Errorf("ctx %d received %d IPIs, want %d", ctx, n, want)
		}
	}
}

// TestIPIOriginAttribution: the delivery of a cross-core IPI is
// attributed to the target's core.
func TestIPIOriginAttribution(t *testing.T) {
	h := mustHost(t, Topology{1, 4, 2})
	h.SendIPI(0, 6, ports.VecIPI) // ctx 6 = core 3
	h.SendIPI(0, 2, ports.VecIPI) // ctx 2 = core 1
	h.SendIPI(0, 3, ports.VecIPI) // ctx 3 = core 1
	h.Eng.Drain(100)
	ev := h.EventsByCore()
	if ev[3] != 1 || ev[1] != 2 || ev[0] != 0 || ev[2] != 0 {
		t.Errorf("EventsByCore = %v, want [0 2 0 1]", ev)
	}
}

// TestReplaySMTInterference: two all-busy VMs on sibling contexts run at
// smtShare throughput; the same two VMs on separate cores don't.
func TestReplaySMTInterference(t *testing.T) {
	const total = sim.Time(1_000_000)
	run := func(ctxA, ctxB CtxID) []VMOutcome {
		h := mustHost(t, Topology{1, 2, 2})
		demands := []Demand{
			{Ctxs: []CtxID{ctxA}, Busy: total, Total: total},
			{Ctxs: []CtxID{ctxB}, Busy: total, Total: total},
		}
		return h.Sched.ReplayStorm(demands, nil).VMs
	}
	separate := run(0, 2)
	for i, vm := range separate {
		if vm.Slowdown > 1.06 {
			t.Errorf("separate cores: vm%d slowdown %.3f, want ~1.0", i, vm.Slowdown)
		}
	}
	siblings := run(0, 1)
	wantSlow := 1 / smtShare // ~1.43
	for i, vm := range siblings {
		if vm.Slowdown < wantSlow*0.95 || vm.Slowdown > wantSlow*1.1 {
			t.Errorf("smt siblings: vm%d slowdown %.3f, want ~%.2f", i, vm.Slowdown, wantSlow)
		}
	}
}

// TestReplayPollingStealsSiblingCycles: a polling SVt-thread on the
// sibling context slows its vCPU neighbour and the stolen cycles are
// accounted to the core; an mwait helper (tiny duty cycle) steals none.
func TestReplayPollingStealsSiblingCycles(t *testing.T) {
	const total = sim.Time(2_000_000)
	run := func(poll bool) ReplayResult {
		h := mustHost(t, Topology{1, 1, 2})
		return h.Sched.ReplayStorm([]Demand{{
			Ctxs:       []CtxID{0, 1},
			Busy:       total,
			Total:      total,
			HelperPoll: poll,
			HelperFrac: 0.05,
		}}, nil)
	}
	polling := run(true)
	mwait := run(false)
	if polling.StolenTotal == 0 {
		t.Fatal("polling helper stole no sibling cycles")
	}
	if mwait.StolenTotal != 0 {
		t.Fatalf("mwait helper stole %d sibling cycles, want 0", mwait.StolenTotal)
	}
	if polling.VMs[0].Slowdown <= mwait.VMs[0].Slowdown {
		t.Errorf("polling slowdown %.3f <= mwait slowdown %.3f",
			polling.VMs[0].Slowdown, mwait.VMs[0].Slowdown)
	}
}

// TestReplayZeroBusyFinishes: a VM idle throughout (Busy 0) finishes
// within one quantum of its Total, even beside a busy neighbour on its
// helper's context, instead of running to the replay's safety valve.
// Total is not a whole number of quanta, so finishing at end-of-quantum
// granularity reads a slowdown above 1, which the never-finished
// default of exactly 1 cannot pass for.
func TestReplayZeroBusyFinishes(t *testing.T) {
	const total = sim.Time(2_010_000)
	h := mustHost(t, Topology{1, 1, 2})
	res := h.Sched.ReplayStorm([]Demand{
		{Ctxs: []CtxID{0, 1}, Busy: 0, Total: total, HelperFrac: 0.05},
		{Ctxs: []CtxID{1}, Busy: total, Total: total},
	}, nil)
	if limit := maxQuanta * quantum; res.Elapsed >= limit {
		t.Fatalf("replay ran to its %v safety valve", limit)
	}
	if s, limit := res.VMs[0].Slowdown, float64(total+quantum)/float64(total); s <= 1 || s > limit {
		t.Fatalf("idle VM slowdown %.4f, want within (1, %.4f]", s, limit)
	}
}

// TestReplayOversubscriptionAndUtilization: four all-busy VMs on one
// 2-context core finish ~4x/smtShare late, and core utilization is full.
func TestReplayOversubscription(t *testing.T) {
	const total = sim.Time(1_000_000)
	h := mustHost(t, Topology{1, 1, 2})
	var demands []Demand
	for i := 0; i < 4; i++ {
		demands = append(demands, Demand{
			Ctxs: []CtxID{CtxID(i % 2)}, Busy: total, Total: total,
		})
	}
	res := h.Sched.ReplayStorm(demands, nil)
	// Two per context at smtShare speed: slowdown ~ 2/0.7 ~ 2.86.
	want := 2 / smtShare
	for i, vm := range res.VMs {
		if vm.Slowdown < want*0.9 || vm.Slowdown > want*1.1 {
			t.Errorf("vm%d slowdown %.3f, want ~%.2f", i, vm.Slowdown, want)
		}
	}
	if res.CoreUtil[0] < 0.95 {
		t.Errorf("CoreUtil[0] = %.3f, want ~1.0", res.CoreUtil[0])
	}
}

// TestReplayMigration: an imbalanced load (3 movable threads on one
// context, none elsewhere) triggers the balancer, which moves a thread
// and kicks the cores with resched IPIs.
func TestReplayMigration(t *testing.T) {
	const total = sim.Time(50_000_000)
	h := mustHost(t, Topology{1, 2, 1})
	var demands []Demand
	for i := 0; i < 3; i++ {
		h.Sched.load[0]++
		demands = append(demands, Demand{
			Ctxs: []CtxID{0}, Busy: total, Total: total,
		})
	}
	res := h.Sched.ReplayStorm(demands, nil)
	if res.Migrations == 0 {
		t.Fatal("no migrations on a 3-vs-0 imbalance")
	}
	if res.ReschedIPIs == 0 {
		t.Fatal("migrations sent no resched IPIs")
	}
	if res.CtxBusy[1] == 0 {
		t.Fatal("migrated thread never ran on the idle context")
	}
	// The migrated thread finishes well before the two that stayed (all
	// three demand the same Total, so slowdown orders finish times).
	finishes := []float64{res.VMs[0].Slowdown, res.VMs[1].Slowdown, res.VMs[2].Slowdown}
	min, max := finishes[0], finishes[0]
	for _, f := range finishes {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	if min == max {
		t.Error("all VMs finished together despite migration")
	}
}

// TestReplayDeterministic: same topology + demands => identical results.
func TestReplayDeterministic(t *testing.T) {
	run := func() ReplayResult {
		h := mustHost(t, Topology{2, 2, 2})
		var demands []Demand
		for i := 0; i < 6; i++ {
			nthreads := 1
			if i%2 == 1 {
				nthreads = 2
			}
			a := h.Sched.Admit(i, nthreads)
			demands = append(demands, Demand{
				Ctxs:       a.Ctxs,
				Busy:       sim.Time(500_000 + 137_000*i),
				Total:      sim.Time(900_000 + 211_000*i),
				HelperPoll: i%4 == 1,
				HelperFrac: 0.1,
			})
		}
		return h.Sched.ReplayStorm(demands, nil)
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.Events != b.Events || a.StolenTotal != b.StolenTotal {
		t.Fatalf("replays diverged: %+v vs %+v", a, b)
	}
	for i := range a.VMs {
		if a.VMs[i] != b.VMs[i] {
			t.Fatalf("vm %d diverged: %+v vs %+v", i, a.VMs[i], b.VMs[i])
		}
	}
}

// TestHostObsTracks: attaching a plane renames context tracks to their
// topology coordinates and records IPI instants.
func TestHostObsTracks(t *testing.T) {
	h := mustHost(t, Topology{1, 2, 2})
	p := obs.New(h.Topo.Contexts(), obs.Options{})
	h.SetObs(p)
	var trace strings.Builder
	if err := p.Tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"pid":0,"tid":0,"args":{"name":"socket0/core0/smt0"}`,
		`"pid":3,"tid":0,"args":{"name":"socket0/core1/smt1"}`,
	} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("trace lacks track name %s", want)
		}
	}
	h.SendIPI(0, 2, ports.VecIPI)
	h.Eng.Drain(10)
	if p.Tracer.Total() == 0 {
		t.Error("no trace events after an IPI send+delivery")
	}
}
