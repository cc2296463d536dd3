package exp

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"svtsim/internal/fault"
	"svtsim/internal/guest"
	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/netsim"
	"svtsim/internal/netstack"
	"svtsim/internal/obs"
	"svtsim/internal/parallel"
	"svtsim/internal/sim"
	"svtsim/internal/stats"
	"svtsim/internal/swsvt"
	"svtsim/internal/traffic"
)

// The load-balancer scenario is the open-loop generalization of
// Figures 7–8: an L0-side balancer sprays requests across k nested VMs
// packed on the fleet host, and the interesting quantity is no longer
// mean round-trip time but the tail — p99/p999 and SLO-violation
// windows — under overload, bursts, migration storms, and injected
// segment loss.
//
// Like the density experiments it runs in two phases. Phase 1 measures
// each backend VM's request service distribution uncontended: a
// netstack flow rides the real virtio-net path into the nested guest,
// whose service loop charges per-request CPU through the mode's full
// exit machinery (this is where baseline / HW-SVt / SW-SVt diverge).
// Phase 2 packs the fleet, replays CPU contention (optionally under a
// migration storm) for per-VM slowdowns and pause windows, then sprays
// an open-loop arrival trace from the balancer context across netstack
// flows that ride the host's cross-core delivery fabric. Every stage is
// engine-driven and RNG-seeded, so the scenario is byte-identical at
// any worker-pool width.

// Load-balancer wire constants: request/response framing and the
// per-hop serialization charge on the host fabric.
const (
	lbReqSize  = 32
	lbRespSize = 32
	lbWireLat  = 2 * sim.Microsecond
	lbVector   = 0xB1 // resched-style kick accompanying each dispatch
)

// LBScenarios lists the supported scenario names in report order.
func LBScenarios() []string {
	return []string{"steady", "overload", "burst", "storm", "faults"}
}

func lbScenarioKnown(name string) bool {
	for _, s := range LBScenarios() {
		if s == name {
			return true
		}
	}
	return false
}

// LBResult is one (mode, scenario) cell of the load-balancer figure.
type LBResult struct {
	Mode     hv.Mode
	K        int
	Scenario string
	Seed     int64
	SLOUs    float64

	// Offered counts arrivals the balancer dispatched; Completed counts
	// responses back within the measurement horizon. Overload shows up
	// as the gap between them.
	Offered   uint64
	Completed uint64
	// GoodputRPS is SLO-meeting completions per second of offered load.
	GoodputRPS float64

	P50Us  float64
	P99Us  float64
	P999Us float64

	// ViolWindows counts 1 ms windows containing at least one
	// SLO-violating completion, out of Windows total.
	Windows     int
	ViolWindows int

	// Transport tallies summed over every flow (balancer + backends).
	SegsSent    uint64
	Retransmits uint64
	SegDrops    uint64

	GangMigrations uint64
	Downtime       sim.Time
	// Events is the host engine's dispatch count across both phases —
	// the determinism tripwire.
	Events uint64
}

// StatsLine renders the cell as one deterministic line; the lb golden
// test and the CI serial-vs-parallel byte-compare pin it.
func (r LBResult) StatsLine() string {
	return fmt.Sprintf("lb mode=%s k=%d scen=%s seed=%d offered=%d completed=%d goodput=%.1f "+
		"p50us=%.3f p99us=%.3f p999us=%.3f slo=%.0fus viol=%d/%d "+
		"segs=%d rexmit=%d drops=%d migrations=%d downtime=%v events=%d",
		r.Mode, r.K, r.Scenario, r.Seed, r.Offered, r.Completed, r.GoodputRPS,
		r.P50Us, r.P99Us, r.P999Us, r.SLOUs, r.ViolWindows, r.Windows,
		r.SegsSent, r.Retransmits, r.SegDrops, r.GangMigrations, r.Downtime, r.Events)
}

// lbRun is one backend class's phase-1 (uncontended) measurement.
type lbRun struct {
	svcUs []float64 // per-request service latency samples, arrival order
	busy  sim.Time
	total sim.Time
	poll  bool
	frac  float64
}

// lbKey caches phase-1 runs per (size class, placement): the backend
// workload depends on the VM index only through i%4.
type lbKey struct {
	size  int
	place swsvt.Placement
}

type lbCache struct {
	mu sync.Mutex
	m  map[lbKey]lbRun
}

func (c *lbCache) get(s *Session, mode hv.Mode, i int, place swsvt.Placement) lbRun {
	key := lbKey{size: i % 4, place: place}
	c.mu.Lock()
	r, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return r
	}
	r = s.runLBVM(mode, i%4, place)
	c.mu.Lock()
	c.m[key] = r
	c.mu.Unlock()
	return r
}

// l0Conduit adapts the L0 side of a nested machine's virtio-net wiring
// (host link in, NIC peer out) to a netstack Conduit.
type l0Conduit struct {
	eng  *sim.Engine
	link *netsim.Link
	nic  *netsim.NIC
	recv func(pkt []byte)
}

func (c *l0Conduit) Send(pkt []byte, done func()) {
	c.link.Send(pkt, c.nic)
	if done != nil {
		c.eng.After(0, done)
	}
}
func (c *l0Conduit) SetReceiver(fn func(pkt []byte)) { c.recv = fn }

// Receive implements netsim.Endpoint: guest-originated frames land here.
func (c *l0Conduit) Receive(pkt []byte) {
	if c.recv != nil {
		c.recv(pkt)
	}
}

// lbServe is the backend guest's service loop: length-framed requests
// arrive on a netstack flow over the guest's virtio NIC, each costs
// svcCPU of guest compute (priced through the mode's exit machinery),
// and the response returns on the same flow.
func lbServe(eng *sim.Engine, env *guest.Env, n int, svcCPU sim.Time) {
	st := netstack.New(eng, env.Net.AsTransport(), netstack.Params{})
	var fl *netstack.Flow
	rx := 0
	st.OnFlow = func(f *netstack.Flow) {
		fl = f
		f.OnData = func(p []byte) { rx += len(p) }
	}
	for served := 0; served < n; served++ {
		env.WaitFor(func() bool { return rx >= lbReqSize })
		rx -= lbReqSize
		env.Compute(svcCPU)
		fl.Write(make([]byte, lbRespSize))
	}
}

// runLBVM measures one backend size class uncontended: a closed-loop L0
// client issues n requests over a netstack flow through the virtio path
// into the nested guest's service loop.
func (s *Session) runLBVM(mode hv.Mode, size int, place swsvt.Placement) lbRun {
	cfg := s.config(mode)
	cfg.Placement = place
	cfg.Seed = int64(3000 + size)
	led := &sim.Ledger{}

	n := 40 + 10*size
	svcCPU := sim.Time(8+2*size) * sim.Microsecond

	io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
	m := machine.NewNested(cfg)
	m.Eng.SetLedger(led)
	m.InstallL2(io, true, false, func(env *guest.Env) { lbServe(m.Eng, env, n, svcCPU) })

	cc := &l0Conduit{eng: m.Eng, link: io.LinkIn, nic: io.NIC}
	io.NIC.Peer = cc
	st := netstack.New(m.Eng, cc, netstack.Params{})
	fl := st.Open(1)

	r := lbRun{}
	var t0 sim.Time
	sent, rx := 0, 0
	send := func() {
		t0 = m.Eng.Now()
		sent++
		fl.Write(make([]byte, lbReqSize))
	}
	fl.OnData = func(p []byte) {
		rx += len(p)
		for rx >= lbRespSize {
			rx -= lbRespSize
			r.svcUs = append(r.svcUs, (m.Eng.Now() - t0).Microseconds())
			if sent < n {
				send()
			}
		}
	}
	m.Eng.After(0, func() { send() })

	s.run(m)
	m.Shutdown()
	r.total = m.Now()
	r.busy = led.Total()
	if r.total > 0 {
		r.frac = float64(led.T[sim.CatTransform]+led.T[sim.CatL1]) / float64(r.total)
	}
	r.poll = mode == hv.ModeSWSVt && cfg.WaitPolicy == swsvt.PolicyPoll
	return r
}

// hostConduit carries packets between two host contexts over the
// topology-priced delivery fabric (host.Deliver). One instance is one
// direction; Pair wires both.
type hostConduit struct {
	h        *host.Host
	from, to host.CtxID
	extra    sim.Time
	recv     func(pkt []byte)
	peer     *hostConduit
}

func hostConduitPair(h *host.Host, a, b host.CtxID, extra sim.Time) (*hostConduit, *hostConduit) {
	ca := &hostConduit{h: h, from: a, to: b, extra: extra}
	cb := &hostConduit{h: h, from: b, to: a, extra: extra}
	ca.peer, cb.peer = cb, ca
	return ca, cb
}

func (c *hostConduit) Send(pkt []byte, done func()) {
	cp := append([]byte(nil), pkt...)
	peer := c.peer
	c.h.Deliver(c.from, c.to, c.extra, func() {
		if peer.recv != nil {
			peer.recv(cp)
		}
	})
	if done != nil {
		c.h.Eng.After(0, done)
	}
}
func (c *hostConduit) SetReceiver(fn func(pkt []byte)) { c.recv = fn }

// lbFaultSpec is the default injection for the "faults" scenario when
// the session has none armed: seeded segment loss on the wire.
func lbFaultSpec(seed int64) *fault.Spec {
	return &fault.Spec{Seed: seed, Sites: []fault.SiteConfig{
		{Site: fault.SiteNetSegment, Rate: 0.02, Drop: true},
	}}
}

// LoadBalancer runs one (mode, scenario) cell: k nested backends on the
// session's topology behind an L0 balancer spraying an open-loop
// arrival trace. Scenarios: steady (55% of fleet capacity), overload
// (170%), burst (on/off between 30% and 250%), storm (steady + seeded
// migration storm), faults (steady + net/segment loss). sloUs <= 0
// defaults to 1000 µs.
func (s *Session) LoadBalancer(mode hv.Mode, k int, scenario string, seed int64, sloUs float64) LBResult {
	return s.loadBalancer(mode, k, scenario, seed, sloUs, &lbCache{m: make(map[lbKey]lbRun)})
}

func (s *Session) loadBalancer(mode hv.Mode, k int, scenario string, seed int64, sloUs float64, cache *lbCache) LBResult {
	if !lbScenarioKnown(scenario) {
		panic(fmt.Sprintf("exp: unknown lb scenario %q (want one of %v)", scenario, LBScenarios()))
	}
	if k < 1 {
		k = 1
	}
	if sloUs <= 0 {
		sloUs = 1000
	}
	topo := s.Topology()
	h, err := host.New(topo, s.HostParams())
	if err != nil {
		panic("exp: " + err.Error())
	}

	// Fault plane: the session's spec, or the scenario default for
	// "faults".
	spec := s.faultSpec()
	if scenario == "faults" && (spec == nil || len(spec.Sites) == 0) {
		spec = lbFaultSpec(seed)
	}
	plane := spec.Build(h.Eng)

	// Observability: one track per host context; per-request spans land
	// on the balancer's track and queue depths register as gauges.
	var oplane *obs.Plane
	s.mu.Lock()
	obsOpts := s.obsOpts
	s.mu.Unlock()
	if obsOpts != nil {
		oplane = obs.New(topo.Contexts(), *obsOpts)
		h.SetObs(oplane)
		if plane != nil {
			plane.SetObs(oplane.Tracer, 0)
		}
	}

	// Admission + phase 1 (cached, fanned out on the pool).
	nthreads := gangSize(mode)
	assigns := make([]host.Assignment, k)
	for i := 0; i < k; i++ {
		assigns[i] = h.Sched.Admit(i, nthreads)
	}
	runs := parallel.MapN(s.Parallelism(), k, func(i int) lbRun {
		return cache.get(s, mode, i, assigns[i].Place)
	})

	// Balancer placement: the context with the fewest admitted backend
	// threads (lowest index breaks ties) — L0 keeps its spray loop off
	// the busiest contexts.
	occ := make([]int, topo.Contexts())
	for i := 0; i < k; i++ {
		for _, c := range assigns[i].Ctxs {
			occ[c]++
		}
	}
	balCtx := host.CtxID(0)
	for c := 1; c < len(occ); c++ {
		if occ[c] < occ[balCtx] {
			balCtx = host.CtxID(c)
		}
	}

	// Phase 2a: contention replay (with the storm overlaid for the
	// storm scenario) yields per-VM slowdowns and pause windows.
	var plan *host.StormPlan
	if scenario == "storm" {
		storms := 3
		if k > storms {
			storms = k
		}
		plan = lbStormPlan(k, storms, seed)
	}
	demands := make([]host.Demand, k)
	for i, r := range runs {
		demands[i] = host.Demand{
			VM: i, Ctxs: assigns[i].Ctxs,
			Busy: r.busy, Total: r.total,
			HelperPoll: r.poll, HelperFrac: r.frac,
			Pinned: nthreads == 2,
		}
	}
	res := h.Sched.ReplayStorm(demands, plan)

	// Fleet capacity estimate — uncontended service means dilated by
	// the replay's contention slowdowns — sets the offered rates.
	var capRPS float64
	for i, r := range runs {
		slow := res.VMs[i].Slowdown
		if slow < 1 {
			slow = 1
		}
		if m := stats.Mean(r.svcUs); m > 0 {
			capRPS += 1e6 / (m * slow)
		}
	}
	dur := 4 * sim.Millisecond
	spec2 := traffic.Spec{Kind: traffic.Poisson, Seed: seed}
	switch scenario {
	case "overload":
		spec2.Rate = 1.7 * capRPS
	case "burst":
		spec2.Kind = traffic.OnOff
		spec2.Rate = 0.3 * capRPS
		spec2.BurstRate = 2.5 * capRPS
		spec2.OnDur = 500 * sim.Microsecond
		spec2.OffDur = 1500 * sim.Microsecond
	default: // steady, storm, faults
		spec2.Rate = 0.55 * capRPS
	}

	// Phase 2b: the open-loop spray on the host engine.
	sp := &lbSpray{
		h: h, balCtx: balCtx, k: k, sloUs: sloUs,
		slow:   make([]float64, k),
		pauses: make([][][2]sim.Time, k),
	}
	for i := range runs {
		sp.slow[i] = res.VMs[i].Slowdown
		if sp.slow[i] < 1 {
			sp.slow[i] = 1
		}
	}
	t0 := h.Eng.Now()
	for _, rec := range res.StormLog {
		// Replay the storm's pause windows against the traffic
		// timeline: the offset into the replay maps (mod duration)
		// into the spray window, stalling the migrated VM's service.
		if rec.VM < 0 || rec.VM >= k {
			continue
		}
		at := t0 + rec.At%dur
		sp.pauses[rec.VM] = append(sp.pauses[rec.VM], [2]sim.Time{at, at + rec.Downtime})
	}
	sp.run(assigns, runs, spec2, t0, dur, oplane)

	// Assemble the cell.
	out := LBResult{
		Mode: mode, K: k, Scenario: scenario, Seed: seed, SLOUs: sloUs,
		Offered: sp.offered, Completed: uint64(len(sp.latUs)),
		P50Us:  stats.Percentile(sp.latUs, 50),
		P99Us:  stats.Percentile(sp.latUs, 99),
		P999Us: stats.Percentile(sp.latUs, 99.9),

		GangMigrations: res.GangMigrations,
		Downtime:       res.MigrationDowntime,
		Events:         h.Eng.Dispatched(),
	}
	okCount := 0
	viol := make(map[int]bool)
	maxWin := 0
	for i, l := range sp.latUs {
		w := int((sp.doneAt[i] - t0) / sim.Millisecond)
		if w > maxWin {
			maxWin = w
		}
		if l <= sloUs {
			okCount++
		} else {
			viol[w] = true
		}
	}
	out.GoodputRPS = float64(okCount) / (float64(dur) / float64(sim.Second))
	out.Windows = maxWin + 1
	out.ViolWindows = len(viol)
	for _, st := range sp.stacks {
		out.SegsSent += st.SegsSent
		out.Retransmits += st.Retransmits
		out.SegDrops += st.Dropped
	}
	if oplane != nil {
		s.mu.Lock()
		s.obsLast = oplane
		s.mu.Unlock()
	}
	return out
}

// lbSpray is the phase-2b state: balancer-side and backend-side flows,
// per-backend fluid service queues, and the latency record.
type lbSpray struct {
	h      *host.Host
	balCtx host.CtxID
	k      int
	sloUs  float64
	slow   []float64
	pauses [][][2]sim.Time // per-VM storm pause windows

	stacks  []*netstack.Stack
	offered uint64
	latUs   []float64
	doneAt  []sim.Time
}

func (sp *lbSpray) run(assigns []host.Assignment, runs []lbRun, tspec traffic.Spec, t0, dur sim.Time, oplane *obs.Plane) {
	h := sp.h
	eng := h.Eng
	k := sp.k

	type backend struct {
		ctx       host.CtxID
		fl        *netstack.Flow // backend-side flow (set on passive open)
		rx        int
		busyUntil sim.Time
		svcIdx    int
		qdepth    int
	}
	backends := make([]*backend, k)
	balFlows := make([]*netstack.Flow, k)
	outstanding := make([]int, k)
	pending := make([][]sim.Time, k)
	balRx := make([]int, k)

	var flowLabel obs.Label
	qd := make([]int, k)
	if oplane != nil {
		flowLabel = oplane.Tracer.Intern("lb-request")
		for j := 0; j < k; j++ {
			j := j
			oplane.Metrics.RegisterFunc(fmt.Sprintf("lb.qdepth.%d", j), func() float64 {
				return float64(qd[j])
			})
		}
	}

	// shiftPauses advances a service start time past any of the
	// backend's storm pause windows it lands in.
	shiftPauses := func(vm int, t sim.Time) sim.Time {
		for _, p := range sp.pauses[vm] {
			if t >= p[0] && t < p[1] {
				t = p[1]
			}
		}
		return t
	}

	setup := func() {
		for j := 0; j < k; j++ {
			j := j
			b := &backend{ctx: assigns[j].Ctxs[0]}
			backends[j] = b

			cBal, cBk := hostConduitPair(h, sp.balCtx, b.ctx, lbWireLat)
			bkSt := netstack.New(eng, cBk, netstack.Params{})
			svc := runs[j].svcUs
			bkSt.OnFlow = func(f *netstack.Flow) {
				b.fl = f
				f.OnData = func(p []byte) {
					b.rx += len(p)
					for b.rx >= lbReqSize {
						b.rx -= lbReqSize
						// Fluid single-server queue: service time is the
						// phase-1 sample dilated by the contention
						// slowdown; storm pauses stall the clock.
						start := eng.Now()
						if b.busyUntil > start {
							start = b.busyUntil
						}
						start = shiftPauses(j, start)
						us := 1.0
						if len(svc) > 0 {
							us = svc[b.svcIdx%len(svc)]
						}
						b.svcIdx++
						b.busyUntil = start + sim.Time(us*sp.slow[j]*1000)
						b.qdepth++
						qd[j] = b.qdepth
						done := b.busyUntil
						eng.At(done, func() {
							b.qdepth--
							qd[j] = b.qdepth
							b.fl.Write(make([]byte, lbRespSize))
						})
					}
				}
			}

			balSt := netstack.New(eng, cBal, netstack.Params{})
			sp.stacks = append(sp.stacks, balSt, bkSt)
			fl := balSt.Open(uint32(j + 1))
			balFlows[j] = fl
			fl.OnData = func(p []byte) {
				balRx[j] += len(p)
				for balRx[j] >= lbRespSize {
					balRx[j] -= lbRespSize
					sent := pending[j][0]
					pending[j] = pending[j][1:]
					outstanding[j]--
					now := eng.Now()
					lat := (now - sent).Microseconds()
					sp.latUs = append(sp.latUs, lat)
					sp.doneAt = append(sp.doneAt, now)
					if oplane != nil {
						oplane.Tracer.Span(int(sp.balCtx), obs.KindNetFlow, obs.LevelNone,
							flowLabel, sent, now, uint64(j), uint64(now-sent))
					}
				}
			}
		}

		src := &traffic.Source{Eng: eng, Spec: tspec, Fire: func(i uint64) {
			sp.offered++
			// Least-outstanding dispatch, lowest index on ties.
			j := 0
			for c := 1; c < k; c++ {
				if outstanding[c] < outstanding[j] {
					j = c
				}
			}
			outstanding[j]++
			pending[j] = append(pending[j], eng.Now())
			balFlows[j].Write(make([]byte, lbReqSize))
			// The dispatch kick crosses the apic plane like a resched.
			h.SendIPI(sp.balCtx, backends[j].ctx, lbVector)
		}}
		src.Start(eng.Now() + dur)
	}
	eng.After(0, setup)

	// Drive traffic plus a drain tail; overloaded queues may still hold
	// work at the horizon — that unfinished backlog is the measurement.
	eng.RunUntil(t0 + dur + 2*sim.Millisecond)
}

// lbStormPlan is BuildStormPlan scaled to the LB replay horizon:
// events land on early quanta so they reliably fire inside phase 2a's
// shorter contention replay, and forced-failure counts stay below the
// rollback threshold often enough to mix outcomes.
func lbStormPlan(k, storms int, seed int64) *host.StormPlan {
	rng := sim.NewRand(seed)
	plan := &host.StormPlan{P: host.DefaultMigrationParams()}
	for i := 0; i < storms; i++ {
		plan.Events = append(plan.Events, host.StormEvent{
			Quantum: uint64(5 + rng.Intn(60)),
			VM:      rng.Intn(k),
			Fails:   rng.Intn(4),
		})
	}
	sort.Slice(plan.Events, func(i, j int) bool {
		a, b := plan.Events[i], plan.Events[j]
		if a.Quantum != b.Quantum {
			return a.Quantum < b.Quantum
		}
		if a.VM != b.VM {
			return a.VM < b.VM
		}
		return a.Fails < b.Fails
	})
	return plan
}

// LoadBalancerTable runs every mode for one scenario on the session's
// worker pool; cells are independent, so the table is byte-identical to
// running them serially.
func (s *Session) LoadBalancerTable(modes []hv.Mode, k int, scenario string, seed int64, sloUs float64) []LBResult {
	out, _ := s.LoadBalancerTableContext(context.Background(), modes, k, scenario, seed, sloUs, nil)
	return out
}

// LoadBalancerTableContext is LoadBalancerTable with cancellation
// checked before each mode's cell starts and progress reported in mode
// order.
func (s *Session) LoadBalancerTableContext(ctx context.Context, modes []hv.Mode, k int, scenario string, seed int64, sloUs float64, pr ProgressFunc) ([]LBResult, error) {
	return sweep(ctx, s, len(modes), pr, "lb",
		func(i int) string { return fmt.Sprintf("mode=%s scen=%s", modes[i], scenario) },
		func(i int) LBResult { return s.LoadBalancer(modes[i], k, scenario, seed, sloUs) })
}

// LoadBalancerSweep runs every scenario for every mode (scenario-major
// rows, mode-minor columns, matching LBScenarios order).
func (s *Session) LoadBalancerSweep(modes []hv.Mode, k int, seed int64, sloUs float64) []LBResult {
	scens := LBScenarios()
	out := make([]LBResult, 0, len(scens)*len(modes))
	for _, sc := range scens {
		out = append(out, s.LoadBalancerTable(modes, k, sc, seed, sloUs)...)
	}
	return out
}
