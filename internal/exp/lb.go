package exp

import (
	"context"
	"fmt"
	"slices"

	"svtsim/internal/fault"
	"svtsim/internal/guest"
	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/netsim"
	"svtsim/internal/netstack"
	"svtsim/internal/obs"
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
// It runs through the same two-phase fleet pipeline as the density
// experiments (packFleet). Phase 1 measures each backend VM's request
// service distribution uncontended: a netstack flow rides the real
// virtio-net path into the nested guest, whose service loop charges
// per-request CPU through the mode's full exit machinery (this is where
// baseline / HW-SVt / SW-SVt diverge). Phase 2a replays CPU contention
// (optionally under a migration storm) for per-VM slowdowns and pause
// windows; phase 2b then sprays an open-loop arrival trace from the
// balancer context across netstack flows that ride the host's
// cross-core delivery fabric. Every stage is engine-driven and
// RNG-seeded, so the scenario is byte-identical at any worker-pool
// width.

// Load-balancer wire constants: request/response framing and the
// per-hop serialization charge on the host fabric.
const (
	lbReqSize  = 32
	lbRespSize = 32
	lbWireLat  = 2 * sim.Microsecond
	lbVector   = 0xB1 // resched-style kick accompanying each dispatch
)

// lbZeros backs every request and response: their bytes are zeros, and
// Flow.Write copies what it is given.
var lbZeros = make([]byte, max(lbReqSize, lbRespSize))

// LBScenarios lists the supported scenario names in report order.
func LBScenarios() []string {
	return []string{"steady", "overload", "burst", "storm", "faults"}
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

// lbServe is the backend guest's service loop: length-framed requests
// arrive on a netstack flow over the guest's virtio NIC, each costs
// svcCPU of guest compute (priced through the mode's exit machinery),
// and the response returns on the same flow.
func lbServe(eng *sim.Engine, env *guest.Env, n int, svcCPU sim.Time) {
	st := netstack.New(eng, env.Net, netstack.Params{})
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
		fl.Write(lbZeros[:lbRespSize])
	}
}

// buildLBVM is the load balancer's vmBuilder: a closed-loop L0 client
// issues requests over a netstack flow through the virtio path into the
// nested guest's service loop, and measure reads the per-request
// service latencies. The backend depends on i only through its size
// class i%4.
func buildLBVM(cfg machine.Config, i int, led *sim.Ledger) (*machine.Machine, *machine.IOStack, func(sim.Time) ([]float64, float64)) {
	size := i % 4
	cfg.Seed = int64(3000 + size)
	// Segment loss is a phase-2b property. On the phase-1 machine a lost
	// segment's retransmit fires from an engine timer, and the backend's
	// stack would transmit from engine context, outside its guest body.
	if f := cfg.Faults; f != nil {
		cfg.Faults = &fault.Spec{Seed: f.Seed, Sites: slices.DeleteFunc(slices.Clone(f.Sites),
			func(c fault.SiteConfig) bool { return c.Site == fault.SiteNetSegment })}
	}
	n := 40 + 10*size
	svcCPU := sim.Time(8+2*size) * sim.Microsecond

	m, io := ioMachine(cfg, led)
	m.InstallL2(io, true, false, func(env *guest.Env) { lbServe(m.Eng, env, n, svcCPU) })

	// The L0 client's wire: transmit rides the inbound link to the NIC,
	// and guest-originated frames land on it as the NIC's peer.
	cc := &netsim.WireEnd{Out: io.LinkIn, Dst: io.NIC}
	io.NIC.Peer = cc
	st := netstack.New(m.Eng, cc, netstack.Params{})
	fl := st.Open(1)

	var svcUs []float64
	var t0 sim.Time
	sent, rx := 0, 0
	send := func() {
		t0 = m.Eng.Now()
		sent++
		fl.Write(lbZeros[:lbReqSize])
	}
	fl.OnData = func(p []byte) {
		rx += len(p)
		for rx >= lbRespSize {
			rx -= lbRespSize
			svcUs = append(svcUs, (m.Eng.Now() - t0).Microseconds())
			if sent < n {
				send()
			}
		}
	}
	m.Eng.After(0, func() { send() })
	return m, io, func(sim.Time) ([]float64, float64) { return svcUs, float64(len(svcUs)) }
}

// lbKey is a backend's phase-1 memo key: its size class and placement.
func lbKey(mode hv.Mode, i int, place swsvt.Placement) vmKey {
	return vmKey{mode: mode, class: "lb", size: i % 4, vm: -1, place: place}
}

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
	if !slices.Contains(LBScenarios(), scenario) {
		panic(fmt.Sprintf("exp: unknown lb scenario %q (want one of %v)", scenario, LBScenarios()))
	}
	if k < 1 {
		k = 1
	}
	if sloUs <= 0 {
		sloUs = 1000
	}
	// Fault plane: the session's spec, or the scenario default for
	// "faults".
	spec := s.faultSpec()
	if scenario == "faults" && (spec == nil || len(spec.Sites) == 0) {
		spec = lbFaultSpec(seed)
	}

	// Observability: one track per host context; per-request spans land
	// on the balancer's track and queue depths register as gauges.
	var oplane *obs.Plane
	s.mu.Lock()
	obsOpts := s.obsOpts
	s.mu.Unlock()
	if obsOpts != nil {
		oplane = obs.New(s.Topology().Contexts(), *obsOpts)
	}

	// Admission, phase 1 and the phase-2a contention replay (with the
	// storm overlaid for the storm scenario) yield per-VM slowdowns and
	// pause windows. Storm events land on early quanta so they reliably
	// fire inside the shorter replay, and forced-failure counts stay
	// below the rollback threshold often enough to mix outcomes.
	var plan *host.StormPlan
	if scenario == "storm" {
		plan = BuildStormPlan(k, max(k, 3), seed, 5, 60, 4)
	}
	f := s.packFleet(mode, k, plan, spec, oplane, lbKey, buildLBVM, false)
	h, assigns, runs, res := f.h, f.assigns, f.runs, f.res

	// Balancer placement: the context with the fewest admitted backend
	// threads (lowest index breaks ties) — L0 keeps its spray loop off
	// the busiest contexts.
	occ := make([]int, h.Topo.Contexts())
	for _, a := range assigns {
		for _, c := range a.Ctxs {
			occ[c]++
		}
	}
	balCtx := host.CtxID(0)
	for c := 1; c < len(occ); c++ {
		if occ[c] < occ[balCtx] {
			balCtx = host.CtxID(c)
		}
	}

	// Phase 2b: the open-loop spray on the host engine. Each backend's
	// service is its phase-1 samples dilated by the replay's contention
	// slowdown; the fleet capacity those imply sets the offered rates.
	sp := &lbSpray{h: h, balCtx: balCtx, backends: make([]*lbBackend, k), sloUs: sloUs, lastViol: -1}
	var capRPS float64
	for i, r := range runs {
		b := &lbBackend{ctx: assigns[i].Ctxs[0], svc: r.latUs, slow: max(res.VMs[i].Slowdown, 1)}
		sp.backends[i] = b
		if m := stats.Mean(r.latUs); m > 0 {
			capRPS += 1e6 / (m * b.slow)
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
	t0 := h.Eng.Now()
	for _, rec := range res.StormLog {
		// Replay the storm's pause windows against the traffic
		// timeline: the offset into the replay maps (mod duration)
		// into the spray window, stalling the migrated VM's service.
		if rec.VM < 0 || rec.VM >= k {
			continue
		}
		at := t0 + rec.At%dur
		sp.backends[rec.VM].pauses = append(sp.backends[rec.VM].pauses, [2]sim.Time{at, at + rec.Downtime})
	}
	sp.run(spec2, t0, dur, oplane)

	// Assemble the cell.
	q := stats.Percentiles(sp.latUs, 50, 99, 99.9)
	out := LBResult{
		Mode: mode, K: k, Scenario: scenario, Seed: seed, SLOUs: sloUs,
		Offered: sp.offered, Completed: uint64(len(sp.latUs)),
		P50Us:  q[0],
		P99Us:  q[1],
		P999Us: q[2],

		GangMigrations: res.GangMigrations,
		Downtime:       res.MigrationDowntime,
		Events:         h.Eng.Dispatched(),
	}
	out.GoodputRPS = float64(sp.ok) / (float64(dur) / float64(sim.Second))
	out.Windows = sp.maxWin + 1
	out.ViolWindows = sp.violWins
	for _, st := range sp.stacks {
		out.SegsSent += st.SegsSent
		out.Retransmits += st.Retransmits
		out.SegDrops += st.Dropped
	}
	s.publishObs(oplane)
	return out
}

// lbSpray is the phase-2b state: one record per backend VM, the
// balancer-side and backend-side stacks, the latency record and the SLO
// tally.
type lbSpray struct {
	h        *host.Host
	balCtx   host.CtxID
	backends []*lbBackend
	sloUs    float64

	stacks  []*netstack.Stack
	offered uint64
	latUs   []float64

	// The SLO tally, kept as completions land in time order: those
	// within sloUs, the latest completion's 1 ms window since t0, and
	// the windows holding a violation (lastViol is the latest of them).
	ok                 int
	maxWin             int
	violWins, lastViol int
}

// complete records a completion of latency lat (us) landing at now.
func (sp *lbSpray) complete(lat float64, now, t0 sim.Time) {
	sp.latUs = append(sp.latUs, lat)
	w := int((now - t0) / sim.Millisecond)
	sp.maxWin = max(sp.maxWin, w)
	switch {
	case lat <= sp.sloUs:
		sp.ok++
	case w != sp.lastViol:
		sp.violWins++
		sp.lastViol = w
	}
}

// lbBackend is all of one backend VM's phase-2b state: its service
// samples, slowdown and storm pauses, its queue, and both ends of its
// flow (the balancer side's pending send times are requests in flight).
type lbBackend struct {
	ctx    host.CtxID
	svc    []float64 // phase-1 service samples (us), shared with the memo
	slow   float64
	pauses [][2]sim.Time

	fl        *netstack.Flow
	rx        int
	busyUntil sim.Time
	svcIdx    int
	qdepth    int

	balFl   *netstack.Flow
	balRx   int
	pending []sim.Time
}

// afterPauses advances a service start time past any of b's storm
// pause windows it lands in.
func (b *lbBackend) afterPauses(t sim.Time) sim.Time {
	for _, p := range b.pauses {
		if t >= p[0] && t < p[1] {
			t = p[1]
		}
	}
	return t
}

// Fire implements sim.Handler: the backend's oldest request leaves
// service and its response goes out. Completions are due at busyUntil,
// which only moves forward, so they fire in the order they were queued.
func (b *lbBackend) Fire(uint64) {
	b.qdepth--
	b.fl.Write(lbZeros[:lbRespSize])
}

func (sp *lbSpray) run(tspec traffic.Spec, t0, dur sim.Time, oplane *obs.Plane) {
	h := sp.h
	eng := h.Eng
	backends := sp.backends

	var flowLabel obs.Label
	if oplane != nil {
		flowLabel = oplane.Tracer.Intern("lb-request")
		for j, b := range backends {
			oplane.Metrics.RegisterFunc(fmt.Sprintf("lb.qdepth.%d", j), func() float64 {
				return float64(b.qdepth)
			})
		}
	}

	setup := func() {
		for j, b := range backends {
			cBal, cBk := netstack.NewPipe(eng, h.IPILatency(sp.balCtx, b.ctx)+lbWireLat)
			bkSt := netstack.New(eng, cBk, netstack.Params{})
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
						start = b.afterPauses(start)
						us := 1.0
						if len(b.svc) > 0 {
							us = b.svc[b.svcIdx%len(b.svc)]
						}
						b.svcIdx++
						b.busyUntil = start + sim.Time(us*b.slow*1000)
						b.qdepth++
						eng.AtCall(b.busyUntil, b, 0)
					}
				}
			}

			balSt := netstack.New(eng, cBal, netstack.Params{})
			sp.stacks = append(sp.stacks, balSt, bkSt)
			b.balFl = balSt.Open(uint32(j + 1))
			b.balFl.OnData = func(p []byte) {
				b.balRx += len(p)
				for b.balRx >= lbRespSize {
					b.balRx -= lbRespSize
					sent := b.pending[0]
					b.pending = b.pending[1:]
					now := eng.Now()
					sp.complete((now - sent).Microseconds(), now, t0)
					if oplane != nil {
						oplane.Tracer.Span(int(sp.balCtx), obs.KindNetFlow, obs.LevelNone,
							flowLabel, sent, now, uint64(j), uint64(now-sent))
					}
				}
			}
		}

		src := &traffic.Source{Eng: eng, Spec: tspec, OnArrival: func(i uint64) {
			sp.offered++
			// Least-outstanding dispatch, lowest index on ties.
			j := 0
			for c := 1; c < len(backends); c++ {
				if len(backends[c].pending) < len(backends[j].pending) {
					j = c
				}
			}
			b := backends[j]
			b.pending = append(b.pending, eng.Now())
			b.balFl.Write(lbZeros[:lbReqSize])
			// The dispatch kick crosses the apic plane like a resched.
			h.SendIPI(sp.balCtx, b.ctx, lbVector)
		}}
		src.Start(eng.Now() + dur)
	}
	eng.After(0, setup)

	// Drive traffic plus a drain tail; overloaded queues may still hold
	// work at the horizon — that unfinished backlog is the measurement.
	eng.RunUntil(t0 + dur + 2*sim.Millisecond)
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
