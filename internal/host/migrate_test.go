package host

import (
	"reflect"
	"strings"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/sim"
)

// migCost computes the expected no-fault single-attempt downtime for an
// image of the given size moving at the given distance factor.
func migCost(bytes int, factor sim.Time) sim.Time {
	kb := sim.Time((bytes + 1023) / 1024)
	return (captureBase + kb*capturePerKB) +
		kb*transferPerKB*factor +
		(restoreBase + kb*restorePerKB)
}

func TestMigrateGangSuccess(t *testing.T) {
	h := mustHost(t, DefaultTopology)
	a := h.Sched.Admit(0, 2)
	from := append([]CtxID(nil), a.Ctxs...)

	// Move the pair to a sibling pair on the far socket: distance NUMA,
	// transfer factor 4.
	dst := []CtxID{h.Topo.Ctx(1, 0, 0), h.Topo.Ctx(1, 0, 1)}
	const bytes = 64 << 10
	res := h.Sched.MigrateGang(&a, dst, bytes, 0)

	if !res.Completed || res.RolledBack || res.Attempts != 1 {
		t.Fatalf("want clean first-attempt completion, got %+v", res)
	}
	if !reflect.DeepEqual(a.Ctxs, dst) {
		t.Fatalf("assignment not moved: %v", a.Ctxs)
	}
	if want := migCost(bytes, 4); res.Downtime != want {
		t.Fatalf("downtime %v, want %v", res.Downtime, want)
	}
	loads := h.Sched.load
	for _, c := range from {
		if loads[c] != 0 {
			t.Errorf("source ctx%d still loaded", c)
		}
	}
	for _, c := range dst {
		if loads[c] != 1 {
			t.Errorf("dest ctx%d load %d, want 1", c, loads[c])
		}
	}
	if g := h.Sched.gang; g.GangMigrations != 1 || g.MigrationDowntime != res.Downtime {
		t.Errorf("tallies: migrations=%d downtime=%v", g.GangMigrations, g.MigrationDowntime)
	}
}

func TestMigrateGangRetryThenSucceed(t *testing.T) {
	h := mustHost(t, DefaultTopology)
	a := h.Sched.Admit(0, 1)
	dst := []CtxID{h.Topo.Ctx(1, 2, 0)}
	const bytes = 8 << 10
	res := h.Sched.MigrateGang(&a, dst, bytes, 1)

	if !res.Completed || res.Attempts != 2 {
		t.Fatalf("want success on attempt 2, got %+v", res)
	}
	// Attempt 1 pays all phases then backs off; attempt 2 pays them again.
	if want := 2*migCost(bytes, 4) + backoffBase; res.Downtime != want {
		t.Fatalf("downtime %v, want %v", res.Downtime, want)
	}
	if h.Sched.gang.GangRetries != 1 {
		t.Errorf("retries %d, want 1", h.Sched.gang.GangRetries)
	}
}

func TestMigrateGangRollbackIsAtomic(t *testing.T) {
	h := mustHost(t, DefaultTopology)
	a := h.Sched.Admit(0, 2)
	from := append([]CtxID(nil), a.Ctxs...)
	loadsBefore := append([]int(nil), h.Sched.load...)
	dst := []CtxID{h.Topo.Ctx(1, 0, 0), h.Topo.Ctx(1, 0, 1)}

	res := h.Sched.MigrateGang(&a, dst, 8<<10, maxAttempts)
	if !res.RolledBack || res.Completed || res.Attempts != maxAttempts {
		t.Fatalf("want rollback after %d attempts, got %+v", maxAttempts, res)
	}
	if !reflect.DeepEqual(a.Ctxs, from) {
		t.Fatalf("rollback moved the gang: %v, want %v", a.Ctxs, from)
	}
	if !reflect.DeepEqual(h.Sched.load, loadsBefore) {
		t.Fatal("rollback left load counts perturbed")
	}
	if res.Downtime == 0 {
		t.Fatal("rollback must still cost downtime")
	}
	if g := h.Sched.gang; g.GangRollbacks != 1 || g.GangMigrations != 0 {
		t.Errorf("tallies: rollbacks=%d migrations=%d", g.GangRollbacks, g.GangMigrations)
	}
}

// TestMigrateGangFaultPlane: an armed migrate/transfer drop site fails
// attempts the same way forced failures do.
func TestMigrateGangFaultPlane(t *testing.T) {
	h := mustHost(t, DefaultTopology)
	spec := &fault.Spec{Seed: 7, Sites: []fault.SiteConfig{
		{Site: fault.SiteMigrateTransfer, Rate: 1.0, Drop: true},
	}}
	plane := spec.Build(h.Eng)
	a := h.Sched.Admit(0, 1)
	dst := []CtxID{h.Topo.Ctx(1, 2, 0)}

	res := h.Sched.MigrateGang(&a, dst, 4<<10, 0)
	if !res.RolledBack {
		t.Fatalf("certain transfer drop must roll back, got %+v", res)
	}
	if plane.FiresCounter().Value() == 0 {
		t.Fatal("fault plane never fired")
	}
}

// TestPlacementBreakerReArmsAfterCooldown: consecutive rollbacks trip
// the VM's placement breaker, an open breaker skips migrations at zero
// cost, and after the cooldown a half-open probe that succeeds re-closes
// it — the SW-SVt channel breaker's lifecycle, lifted to placements.
func TestPlacementBreakerReArmsAfterCooldown(t *testing.T) {
	h := mustHost(t, DefaultTopology)
	a := h.Sched.Admit(0, 1)
	dst := []CtxID{h.Topo.Ctx(1, 2, 0)}

	for i := 0; i < breakerThreshold; i++ {
		if res := h.Sched.MigrateGang(&a, dst, 4<<10, maxAttempts); !res.RolledBack {
			t.Fatalf("rollback %d: got %+v", i, res)
		}
	}
	br := h.Sched.placeBreakers[0]
	if br == nil || !strings.HasPrefix(br.String(), "breaker open ") {
		t.Fatalf("breaker not open after %d rollbacks: %v", breakerThreshold, br)
	}
	if br.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", br.Trips())
	}

	// While open: skipped, zero downtime, no attempts.
	res := h.Sched.MigrateGang(&a, dst, 4<<10, 0)
	if !res.SkippedBreakerOpen || res.Downtime != 0 || res.Attempts != 0 {
		t.Fatalf("open breaker must skip at zero cost, got %+v", res)
	}
	if h.Sched.gang.GangSkipped != 1 {
		t.Errorf("skipped tally %d, want 1", h.Sched.gang.GangSkipped)
	}

	// Past the cooldown the half-open probe runs — and a healthy attempt
	// re-closes the breaker.
	h.Eng.Advance(breakerCooldown + sim.Microsecond)
	res = h.Sched.MigrateGang(&a, dst, 4<<10, 0)
	if !res.Completed {
		t.Fatalf("half-open probe should have migrated, got %+v", res)
	}
	if !strings.HasPrefix(br.String(), "breaker closed ") {
		t.Fatalf("%v after successful probe, want closed", br)
	}
	if br.Recoveries() != 1 {
		t.Errorf("recoveries = %d, want 1", br.Recoveries())
	}
}

func stormDemands(h *Host, k int) []Demand {
	var demands []Demand
	for i := 0; i < k; i++ {
		nthreads := 1
		if i%2 == 1 {
			nthreads = 2
		}
		a := h.Sched.Admit(i, nthreads)
		demands = append(demands, Demand{
			Ctxs:       a.Ctxs,
			Busy:       sim.Time(400_000 + 97_000*i),
			Total:      sim.Time(800_000 + 131_000*i),
			HelperFrac: 0.1,
			ImageBytes: 32 << 10,
		})
	}
	return demands
}

// TestReplayStormNilPlanMatchesEmptyPlan: the storm hooks are free when
// no event fires — ReplayStorm with an empty plan is bit-identical to
// ReplayStorm with none.
func TestReplayStormNilPlanMatchesEmptyPlan(t *testing.T) {
	run := func(storm bool) ReplayResult {
		h := mustHost(t, Topology{1, 4, 2})
		demands := stormDemands(h, 5)
		if storm {
			return h.Sched.ReplayStorm(demands, &StormPlan{})
		}
		return h.Sched.ReplayStorm(demands, nil)
	}
	plain, storm := run(false), run(true)
	if !reflect.DeepEqual(plain, storm) {
		t.Fatalf("empty storm perturbed the replay:\nplain %+v\nstorm %+v", plain, storm)
	}
}

func TestReplayStormMigratesAndRollsBack(t *testing.T) {
	run := func() ReplayResult {
		h := mustHost(t, Topology{1, 4, 2})
		demands := stormDemands(h, 4)
		plan := &StormPlan{
			Events: []StormEvent{
				{Quantum: 2, VM: 0, Fails: 0},
				{Quantum: 4, VM: 2, Fails: 3}, // == MaxAttempts: forced rollback
				{Quantum: 6, VM: 0, Fails: 1},
			},
		}
		return h.Sched.ReplayStorm(demands, plan)
	}
	res := run()
	if res.GangMigrations < 2 {
		t.Errorf("gang migrations %d, want >= 2", res.GangMigrations)
	}
	if res.GangRollbacks != 1 {
		t.Errorf("gang rollbacks %d, want 1", res.GangRollbacks)
	}
	if res.GangRetries == 0 || res.MigrationDowntime == 0 {
		t.Errorf("retries=%d downtime=%v, want both nonzero", res.GangRetries, res.MigrationDowntime)
	}
	// The replay leaves its loop early only once every VM has finished;
	// otherwise it runs to the safety valve.
	if limit := maxQuanta * quantum; res.Elapsed >= limit {
		t.Errorf("storm replay ran to its %v safety valve: a VM never finished", limit)
	}
	if again := run(); !reflect.DeepEqual(res, again) {
		t.Fatal("storm replay is nondeterministic")
	}
}

// TestCrossSocketMigrateGang: a gang moving between sockets commits,
// and the reschedule kicks it sends land — the source pair's and the
// destination pair's, attributed to their cores — while a forced
// mid-transfer fault rolls the next gang back without sending any.
func TestCrossSocketMigrateGang(t *testing.T) {
	topo := Topology{2, 2, 2}
	h := mustHost(t, topo)

	a := h.Sched.Admit(0, 2)
	src := append([]CtxID(nil), a.Ctxs...)
	dst := []CtxID{topo.Ctx(1, 0, 0), topo.Ctx(1, 0, 1)}
	clean := h.Sched.MigrateGang(&a, dst, 64<<10, 0)
	if !clean.Completed {
		t.Fatalf("clean cross-socket migration failed: %+v", clean)
	}
	kicks := h.Sched.reschedIPIs

	b := h.Sched.Admit(1, 2)
	rbDst := []CtxID{topo.Ctx(1, 1, 0), topo.Ctx(1, 1, 1)}
	rb := h.Sched.MigrateGang(&b, rbDst, 32<<10, maxAttempts)
	if !rb.RolledBack || rb.Completed {
		t.Fatalf("forced mid-transfer failure did not roll back: %+v", rb)
	}
	if got := h.Sched.reschedIPIs - kicks; got != 2 {
		t.Fatalf("rollback sent %d IPIs beyond the second admission's 2", got)
	}

	h.Eng.RunUntil(1 * sim.Millisecond)
	recv := h.IPIsReceived()
	var total uint64
	for _, n := range recv {
		total += n
	}
	if total != h.Sched.reschedIPIs || h.Eng.Dispatched() != total {
		t.Fatalf("%d IPIs received in %d events, %d sent", total, h.Eng.Dispatched(), h.Sched.reschedIPIs)
	}
	for _, c := range append(src, dst...) {
		if recv[c] == 0 {
			t.Errorf("ctx%d never received its migration kick", c)
		}
	}
	for _, c := range rbDst {
		if recv[c] != 0 || h.Sched.load[c] != 0 {
			t.Errorf("rolled-back destination ctx%d touched: %d IPIs, load %d", c, recv[c], h.Sched.load[c])
		}
	}
	if core := topo.CoreOf(dst[0]); h.EventsByCore()[core] != 2 {
		t.Errorf("destination core %d attributed %d events, want its 2 kicks", core, h.EventsByCore()[core])
	}
}

// TestCrossSocketMigrateGangFaultPlane: with the seeded fault plane
// armed at the migrate/transfer and apic/ipi sites, a cross-socket move
// retries through drops, delayed kicks still land, and the whole
// outcome replays identically from the seed.
func TestCrossSocketMigrateGangFaultPlane(t *testing.T) {
	topo := Topology{2, 2, 2}
	type outcome struct {
		Res   MigrationResult
		Fires uint64
		Recv  []uint64
	}
	run := func() outcome {
		h := mustHost(t, topo)
		spec := &fault.Spec{Seed: 11, Sites: []fault.SiteConfig{
			{Site: fault.SiteMigrateTransfer, Rate: 0.5, Drop: true},
			{Site: fault.SiteIPI, Rate: 0.2, Delay: 300},
		}}
		plane := spec.Build(h.Eng)
		a := h.Sched.Admit(0, 2)
		res := h.Sched.MigrateGang(&a, []CtxID{topo.Ctx(1, 0, 0), topo.Ctx(1, 0, 1)}, 16<<10, 0)
		h.Eng.RunUntil(1 * sim.Millisecond)
		return outcome{Res: res, Fires: plane.FiresCounter().Value(), Recv: append([]uint64(nil), h.IPIsReceived()...)}
	}
	ref := run()
	if ref.Fires == 0 {
		t.Fatal("fault plane never fired")
	}
	if !ref.Res.Completed || ref.Res.Attempts < 2 {
		t.Fatalf("want a completed move after at least one dropped transfer, got %+v", ref.Res)
	}
	if ref.Recv[topo.Ctx(1, 0, 0)] == 0 || ref.Recv[topo.Ctx(1, 0, 1)] == 0 {
		t.Errorf("destination kicks lost: %v", ref.Recv)
	}
	if got := run(); !reflect.DeepEqual(got, ref) {
		t.Errorf("fault-armed migration is not seed-deterministic:\n got %+v\nwant %+v", got, ref)
	}
}
