package host

import (
	"fmt"
	"math"
	"slices"

	"svtsim/internal/fault"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/swsvt"
)

// Scheduler is the host's L0 scheduler. It makes two kinds of decision:
//
//   - Admission: when a VM arrives it is placed onto hardware contexts.
//     A baseline or HW-SVt VM is one runnable thread (HW-SVt's extra
//     contexts are per-core front-end state, not extra fetch targets);
//     a SW-SVt VM is a gang of two — the vCPU and its polling/mwaiting
//     SVt-thread — whose relative placement (sibling-SMT, cross-core,
//     cross-NUMA) falls out of which contexts were free.
//
//   - Steady state: a quantum-driven run loop on the shared engine
//     divides each context's cycles among its resident threads, halves
//     throughput when SMT siblings contend (smtShare), accounts the
//     sibling cycles polling SVt-threads steal, and periodically
//     migrates movable threads from the busiest context to the idlest,
//     kicking the affected cores with reschedule IPIs through the apic
//     plane.
type Scheduler struct {
	h *Host

	// load counts resident threads per context.
	load []int

	migrations  uint64
	reschedIPIs uint64

	// Live-migration state (migrate.go): per-VM placement breakers and
	// gang-migration counters.
	placeBreakers  map[int]*fault.Breaker
	gangMigrations uint64
	gangRollbacks  uint64
	gangRetries    uint64
	gangSkipped    uint64
	migDowntime    sim.Time
}

func newScheduler(h *Host) *Scheduler {
	return &Scheduler{h: h, load: make([]int, h.Topo.Contexts())}
}

// Assignment records where a VM's threads landed.
type Assignment struct {
	VM   int
	Ctxs []CtxID // vCPU context first, then the SVt-thread context (if any)
	// Place is the topological relation between the vCPU and its
	// SVt-thread; meaningful only for two-thread (SW-SVt) gangs.
	Place swsvt.Placement
}

func (a Assignment) String() string {
	if len(a.Ctxs) == 1 {
		return fmt.Sprintf("vm%d: ctx%d", a.VM, a.Ctxs[0])
	}
	return fmt.Sprintf("vm%d: ctx%d + svt ctx%d (%s)", a.VM, a.Ctxs[0], a.Ctxs[1], a.Place)
}

// pickLeastLoaded returns the context with minimum load, excluding any
// in skip; ties break toward the lowest index (determinism).
func (s *Scheduler) pickLeastLoaded(skip CtxID) CtxID {
	best, bestLoad := CtxID(-1), math.MaxInt
	for c := range s.load {
		if CtxID(c) == skip {
			continue
		}
		if s.load[c] < bestLoad {
			best, bestLoad = CtxID(c), s.load[c]
		}
	}
	return best
}

// Admit places a VM with nthreads runnable threads (1 or 2) and returns
// the assignment. Placement policy, in order:
//
//  1. A fully idle core: the gang shares its SMT siblings (PlaceSMT) —
//     the paper's preferred arrangement, wakes stay on-die. A single
//     thread takes one context of the idlest core.
//  2. Two idle contexts on distinct cores of one socket (PlaceCrossCore).
//  3. Two idle contexts on distinct sockets (PlaceCrossNUMA).
//  4. Saturated host: the least-loaded sibling pair (or least-loaded
//     two contexts when the topology has no SMT).
//
// Every admitted thread lands with a reschedule IPI from the scheduler's
// home context (ctx 0) through the apic plane.
func (s *Scheduler) Admit(vm, nthreads int) Assignment {
	t := s.h.Topo
	a := Assignment{VM: vm, Place: swsvt.PlaceSMT}
	switch nthreads {
	case 1:
		a.Ctxs = []CtxID{s.pickLeastLoaded(-1)}
	case 2:
		main, helper := s.placePair()
		a.Ctxs = []CtxID{main, helper}
		a.Place = t.PlacementOf(main, helper)
	default:
		panic(fmt.Sprintf("host: Admit(vm=%d, nthreads=%d): want 1 or 2", vm, nthreads))
	}
	for _, c := range a.Ctxs {
		s.load[c]++
		s.reschedIPIs++
		s.h.SendIPI(0, c, ports.VecIPI)
	}
	return a
}

// placePair finds contexts for a two-thread gang per the Admit policy.
func (s *Scheduler) placePair() (main, helper CtxID) {
	t := s.h.Topo
	// 1. Fully idle core → SMT siblings.
	if t.ThreadsPerCore >= 2 {
		for core := 0; core < t.Cores(); core++ {
			c0 := CtxID(core * t.ThreadsPerCore)
			c1 := c0 + 1
			if s.load[c0] == 0 && s.load[c1] == 0 {
				return c0, c1
			}
		}
	}
	// 2/3. Two idle contexts, same socket preferred over cross-socket.
	var idle []CtxID
	for c := range s.load {
		if s.load[c] == 0 {
			idle = append(idle, CtxID(c))
		}
	}
	if len(idle) >= 2 {
		for i := 0; i < len(idle); i++ {
			for j := i + 1; j < len(idle); j++ {
				if t.SocketOf(idle[i]) == t.SocketOf(idle[j]) {
					return idle[i], idle[j]
				}
			}
		}
		return idle[0], idle[1]
	}
	// 4. Saturated: least-loaded sibling pair (SMT hosts), else the two
	// least-loaded contexts.
	if t.ThreadsPerCore >= 2 {
		bestCore, bestLoad := 0, math.MaxInt
		for core := 0; core < t.Cores(); core++ {
			c0 := CtxID(core * t.ThreadsPerCore)
			l := s.load[c0] + s.load[c0+1]
			if l < bestLoad {
				bestCore, bestLoad = core, l
			}
		}
		c0 := CtxID(bestCore * t.ThreadsPerCore)
		return c0, c0 + 1
	}
	main = s.pickLeastLoaded(-1)
	helper = s.pickLeastLoaded(main)
	return main, helper
}

// Demand is one VM's execution demand presented to the replay: the
// uncontended virtual runtime of the run (Total), the share of it the
// vCPU thread spent executing rather than idle (Busy), and the
// SVt-thread's behaviour — a polling helper occupies its context every
// cycle regardless of work; an mwait/mutex helper only runs its
// HelperFrac share.
type Demand struct {
	Ctxs       []CtxID // from the VM's Assignment
	Busy       sim.Time
	Total      sim.Time
	HelperPoll bool
	HelperFrac float64
	// ImageBytes is the VM's snapshot image size, pricing the transfer
	// phase of storm-driven live migrations (0 = a trivial image).
	ImageBytes int
}

// VMOutcome is one VM's fate under contention.
type VMOutcome struct {
	Slowdown float64 // completion time / Total; 1.0 = no interference
}

// ReplayResult aggregates a contention replay.
type ReplayResult struct {
	Elapsed sim.Time
	VMs     []VMOutcome

	// CtxBusy is wall time each context spent executing threads.
	CtxBusy []sim.Time
	// CoreUtil is each physical core's busy fraction over Elapsed,
	// averaged across its SMT contexts.
	CoreUtil []float64
	// StolenTotal is sibling wall time lost to SMT contention caused
	// by polling SVt-threads — cycles the vCPU thread on the sibling
	// context would have used had the helper mwaited instead (§6.4).
	StolenTotal sim.Time

	Migrations  uint64
	ReschedIPIs uint64
	// Events is how many engine events the replay dispatched.
	Events uint64

	// Gang-migration tallies, populated by storm replays (zero when no
	// storm plan fired).
	GangMigrations    uint64
	GangRollbacks     uint64
	GangRetries       uint64
	GangSkipped       uint64
	MigrationDowntime sim.Time

	// StormLog records each storm event that reached a migration
	// attempt, in fire order — downstream consumers (the load-balancer
	// scenario) replay the pause windows against open-loop traffic.
	StormLog []StormRecord
}

// maxQuanta is ReplayStorm's safety valve (~42 minutes of 50us ticks):
// a replay that reaches it returns with VMs still unfinished.
const maxQuanta = 50_000_000

// StormRecord is one fired storm event.
type StormRecord struct {
	VM       int
	At       sim.Time // host virtual time the attempt started
	Downtime sim.Time // pause window length (failed attempts included)
}

// StormEvent asks the storm replay to live-migrate one VM's gang at the
// start of a quantum. Fails forces the first Fails attempts to fail (on
// top of whatever the fault plane injects at the migrate/* sites).
type StormEvent struct {
	Quantum uint64
	VM      int
	Fails   int
}

// StormPlan is a deterministic migration storm: events sorted by quantum
// (then VM).
type StormPlan struct {
	Events []StormEvent
}

// thread is the replay's run-queue entry.
type thread struct {
	vm     int  // index into demands
	helper bool // SVt-thread leg of a gang
	ctx    CtxID
	// pinned marks the threads of a two-thread gang, which the balancer
	// must not split (SW-SVt pairs: their placement class is baked into
	// the per-VM simulation).
	pinned bool
}

// leave removes th from its context's run queue. The remaining threads
// keep their order: the per-context demand sums depend on it.
func leave(residents [][]*thread, th *thread) {
	rs := residents[th.ctx]
	i := slices.Index(rs, th)
	residents[th.ctx] = slices.Delete(rs, i, i+1)
}

// ReplayStorm runs the admitted VMs to completion under contention on
// the shared engine. The model is quantum-driven and fluid: each scheduler
// tick divides every context's quantum among its runnable threads, and
// a thread's VM makes progress in proportion to the service it
// received divided by its duty cycle — a VM whose uncontended run was
// half idle needs only half a quantum of service to advance a full
// quantum of virtual time. When both SMT siblings of a core are busy in
// a quantum each runs at smtShare throughput. The replay is RNG-free
// and strictly ordered, so results are bit-identical for a given
// topology and demand set.
//
// A non-nil plan overlays a migration storm: at the start of each named
// quantum the plan's VM is live-migrated (MigrateGang) to an idle core,
// and the VM's demand is parked for the resulting downtime window —
// guest-visible pause shows up as lost progress, exactly as a real
// migration stalls a guest. A plan with no events is byte-identical to
// a nil one: the storm hooks touch no RNG and charge nothing unless an
// event fires.
func (s *Scheduler) ReplayStorm(demands []Demand, plan *StormPlan) ReplayResult {
	h := s.h
	t := h.Topo
	nctx := t.Contexts()
	startEvents := h.Eng.Dispatched()
	res := ReplayResult{
		VMs:      make([]VMOutcome, len(demands)),
		CtxBusy:  make([]sim.Time, nctx),
		CoreUtil: make([]float64, t.Cores()),
	}

	// Build the run queue.
	residents := make([][]*thread, nctx)
	vmThreads := make([][]*thread, len(demands)) // per-VM gang, main first
	progress := make([]float64, len(demands))
	duty := make([]float64, len(demands)) // share of each quantum the main thread asks for
	done := make([]bool, len(demands))
	remaining := 0
	for i := range demands {
		d := &demands[i]
		res.VMs[i] = VMOutcome{Slowdown: 1}
		if d.Total <= 0 {
			done[i] = true
			continue
		}
		remaining++
		duty[i] = min(float64(d.Busy)/float64(d.Total), 1)
		gang := len(d.Ctxs) > 1
		main := &thread{vm: i, ctx: d.Ctxs[0], pinned: gang}
		residents[main.ctx] = append(residents[main.ctx], main)
		vmThreads[i] = append(vmThreads[i], main)
		if gang {
			helper := &thread{vm: i, helper: true, ctx: d.Ctxs[1], pinned: true}
			residents[helper.ctx] = append(residents[helper.ctx], helper)
			vmThreads[i] = append(vmThreads[i], helper)
		}
	}
	if remaining == 0 {
		return res
	}

	// Storm state: per-VM live assignments (synced to thread positions
	// before each migration) and pause windows parking a migrating VM's
	// demand for its downtime.
	pausedUntil := make([]sim.Time, len(demands))
	var asg []Assignment
	evIdx := 0
	if plan != nil {
		asg = make([]Assignment, len(demands))
		for i := range demands {
			asg[i] = Assignment{VM: i, Ctxs: append([]CtxID(nil), demands[i].Ctxs...)}
			if len(asg[i].Ctxs) > 1 {
				asg[i].Place = t.PlacementOf(asg[i].Ctxs[0], asg[i].Ctxs[1])
			}
		}
	}

	q := float64(quantum)
	demand := make([]float64, nctx) // requested context time this quantum
	occupied := make([]bool, nctx)  // context issued at all this quantum
	var quanta uint64

	// threadDemand is how much of the quantum a thread wants its context.
	var qNow sim.Time
	threadDemand := func(th *thread) float64 {
		d := &demands[th.vm]
		if done[th.vm] {
			return 0
		}
		if qNow < pausedUntil[th.vm] {
			return 0 // paused in a migration's downtime window
		}
		if th.helper {
			if d.HelperPoll {
				return q // a polling SVt-thread never yields
			}
			return d.HelperFrac * q
		}
		return duty[th.vm] * q
	}

	for remaining > 0 && quanta < maxQuanta {
		quanta++
		now := h.Eng.Now()
		end := now + quantum
		qNow = now

		// Pass 0: storm events due this quantum fire before demand is
		// computed, so the migration's pause takes effect immediately.
		if plan != nil {
			for evIdx < len(plan.Events) && plan.Events[evIdx].Quantum <= quanta {
				ev := plan.Events[evIdx]
				evIdx++
				if ev.VM < 0 || ev.VM >= len(demands) || done[ev.VM] {
					continue
				}
				a := &asg[ev.VM]
				// Sync to where the balancer actually left the threads.
				for i, th := range vmThreads[ev.VM] {
					a.Ctxs[i] = th.ctx
				}
				dst := s.stormDest(a)
				if dst == nil {
					continue // no idle core to move to; skip this event
				}
				mres := s.MigrateGang(a, dst, demands[ev.VM].ImageBytes, ev.Fails)
				if mres.Completed {
					for i, th := range vmThreads[ev.VM] {
						leave(residents, th)
						th.ctx = a.Ctxs[i]
						residents[th.ctx] = append(residents[th.ctx], th)
					}
				}
				pausedUntil[ev.VM] = now + mres.Downtime
				res.StormLog = append(res.StormLog, StormRecord{
					VM: ev.VM, At: now, Downtime: mres.Downtime,
				})
			}
		}

		// Pass 1: per-context demand.
		for c := 0; c < nctx; c++ {
			demand[c] = 0
			occupied[c] = false
			for _, th := range residents[c] {
				demand[c] += threadDemand(th)
			}
			if demand[c] > 0 {
				occupied[c] = true
			}
		}

		// Pass 2: SMT contention + service delivery, in context order.
		for c := 0; c < nctx; c++ {
			if !occupied[c] {
				continue
			}
			// SMT penalty proportional to sibling occupancy: a sibling
			// busy the whole quantum degrades this context to smtShare;
			// a 5%-duty mwait helper costs 5% of that penalty.
			speed := 1.0
			sib := -1
			if t.ThreadsPerCore >= 2 {
				sib = int(t.Sibling(CtxID(c)))
			}
			if sib >= 0 && occupied[sib] {
				sibWall := demand[sib]
				if sibWall > q {
					sibWall = q
				}
				speed = 1 - (1-smtShare)*(sibWall/q)
			}
			// The context runs for min(q, demand) wall time at `speed`
			// effective throughput; each thread receives service in
			// proportion to what it asked for.
			wall := demand[c]
			if wall > q {
				wall = q
			}
			res.CtxBusy[c] += sim.Time(wall)
			share := 1.0
			if demand[c] > q {
				share = q / demand[c]
			}
			for _, th := range residents[c] {
				td := threadDemand(th)
				if td == 0 || th.helper {
					continue
				}
				progress[th.vm] += td * share * speed / duty[th.vm]
			}
			// Sibling cycles stolen by a polling SVt-thread: wall time
			// the sibling loses because this context's poller keeps its
			// issue ports busy the entire quantum.
			if sib >= 0 && occupied[sib] {
				for _, th := range residents[c] {
					if th.helper && demands[th.vm].HelperPoll && !done[th.vm] {
						sibWall := demand[sib]
						if sibWall > q {
							sibWall = q
						}
						res.StolenTotal += sim.Time(sibWall * (1 - smtShare))
						break
					}
				}
			}
		}

		// Pass 3: completions (end-of-quantum granularity). A zero-duty VM
		// is idle throughout, so contention cannot slow it: outside a
		// migration's downtime it advances one full quantum per quantum.
		for i := range demands {
			if done[i] {
				continue
			}
			if duty[i] == 0 && qNow >= pausedUntil[i] {
				progress[i] += q
			}
			if progress[i] >= float64(demands[i].Total) {
				done[i] = true
				remaining--
				res.VMs[i].Slowdown = float64(end) / float64(demands[i].Total)
				// Finished threads leave their contexts.
				for _, th := range vmThreads[i] {
					leave(residents, th)
				}
			}
		}

		// Pass 4: periodic load balance — move one movable (unpinned)
		// thread from the busiest context to the idlest, and kick both
		// cores with resched IPIs through the apic plane.
		if quanta%rebalanceEvery == 0 && remaining > 0 {
			s.rebalance(residents)
		}

		// Advance the clock to the end of the quantum, dispatching IPI
		// deliveries and anything else scheduled.
		h.Eng.RunUntil(end)
	}

	res.Elapsed = h.Eng.Now()
	res.Events = h.Eng.Dispatched() - startEvents
	res.Migrations = s.migrations
	res.ReschedIPIs = s.reschedIPIs
	res.GangMigrations = s.gangMigrations
	res.GangRollbacks = s.gangRollbacks
	res.GangRetries = s.gangRetries
	res.GangSkipped = s.gangSkipped
	res.MigrationDowntime = s.migDowntime
	if res.Elapsed > 0 {
		for core := 0; core < t.Cores(); core++ {
			var busy sim.Time
			for th := 0; th < t.ThreadsPerCore; th++ {
				busy += res.CtxBusy[core*t.ThreadsPerCore+th]
			}
			res.CoreUtil[core] = float64(busy) / (float64(res.Elapsed) * float64(t.ThreadsPerCore))
		}
	}
	return res
}

// stormDest picks where a storm migration sends the gang: the
// lowest-numbered core not currently hosting any of it with enough idle
// contexts (an idle sibling pair for a two-thread gang). nil means the
// host has nowhere idle to move the gang and the event is skipped.
func (s *Scheduler) stormDest(a *Assignment) []CtxID {
	t := s.h.Topo
	for core := 0; core < t.Cores(); core++ {
		hosting := false
		for _, c := range a.Ctxs {
			if t.CoreOf(c) == core {
				hosting = true
			}
		}
		if hosting {
			continue
		}
		base := CtxID(core * t.ThreadsPerCore)
		if len(a.Ctxs) == 1 {
			for th := 0; th < t.ThreadsPerCore; th++ {
				if s.load[base+CtxID(th)] == 0 {
					return []CtxID{base + CtxID(th)}
				}
			}
			continue
		}
		if t.ThreadsPerCore >= 2 && s.load[base] == 0 && s.load[base+1] == 0 {
			return []CtxID{base, base + 1}
		}
	}
	return nil
}

// rebalance moves one unpinned thread from the most crowded context to
// the least crowded when the imbalance is at least two runnable
// threads, mirroring a conservative CFS-style idle-pull.
func (s *Scheduler) rebalance(residents [][]*thread) {
	maxC, minC := -1, -1
	maxN, minN := -1, math.MaxInt
	for c := range residents {
		n := len(residents[c])
		if n > maxN {
			maxN, maxC = n, c
		}
		if n < minN {
			minN, minC = n, c
		}
	}
	if maxC < 0 || minC < 0 || maxN-minN < 2 {
		return
	}
	var mover *thread
	for _, th := range residents[maxC] {
		if !th.pinned {
			mover = th
			break
		}
	}
	if mover == nil {
		return
	}
	leave(residents, mover)
	residents[minC] = append(residents[minC], mover)
	src := mover.ctx
	mover.ctx = CtxID(minC)
	s.load[src]--
	s.load[minC]++
	s.migrations++
	s.reschedIPIs += 2
	s.h.SendIPI(0, CtxID(minC), ports.VecIPI)
	s.h.SendIPI(0, src, ports.VecIPI)
}
