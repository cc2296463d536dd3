package host

import (
	"fmt"

	"svtsim/internal/obs"
	"svtsim/internal/ports"
	x86port "svtsim/internal/ports/x86"
	"svtsim/internal/sim"
)

// The host cost model: IPI latency by topological distance (self-IPIs
// short-circuit in the LAPIC, sibling IPIs stay on-die, cross-core hops
// cross the ring, cross-socket hops cross the interconnect), the
// scheduler quantum, and the number of quanta between L0 load-balancer
// passes.
const (
	ipiSelf        sim.Time = 200
	ipiSMT         sim.Time = 450
	ipiCrossCore   sim.Time = 900
	ipiCrossNUMA   sim.Time = 4500
	quantum        sim.Time = 50_000 // 50us scheduler tick
	rebalanceEvery          = 20
)

// smtShare is the fraction of a core's single-thread throughput each
// sibling retains when both hardware contexts issue at once (§6.4's
// sibling-cycle-stealing discussion; ~0.7 is the usual 1.4x SMT speedup
// split two ways). It is a variable, not a constant: Go would fold the
// constant 1-0.7 to exactly 0.3, where the replay has always computed
// 0.30000000000000004 at run time.
var smtShare = 0.7

// Fingerprint names the host cost model in svtsimd's digest preimage,
// so a changed constant invalidates every cached fleet result.
var Fingerprint = fmt.Sprintf("hostparams:%d,%d,%d,%d,%d,%g,%d",
	ipiSelf, ipiSMT, ipiCrossCore, ipiCrossNUMA, quantum, smtShare, rebalanceEvery)

// Host is the fleet-scale machine: every hardware context of the
// topology owns a LAPIC on the apic plane, built when first used, and is
// a placement target for the L0 scheduler. A Host either owns its engine
// (New) or grafts onto an existing machine's engine (NewOn — the
// differential harness runs a guest stack and a multi-core host on the
// same clock).
type Host struct {
	Topo Topology
	// Eng is the one engine every context's events, the host's clock and
	// its fault plane live on.
	Eng *sim.Engine

	port   ports.Port
	lapics []ports.IRQController // nil until the context's first use

	// OnIPI, when set for a context, handles reschedule-IPI arrival
	// there instead of the default (count and ack). The differential
	// harness routes these into a guest machine's L1 interrupt plane.
	onIPI []func(vec int)

	// Accounting.
	ipiSent [4]uint64 // by Distance
	ipiRecv []uint64  // per context

	tracer    *obs.Tracer
	ctxTracks []int
	ipiLabel  obs.Label

	Sched *Scheduler
}

// New builds a host with its own engine. The port supplies the
// per-context interrupt controllers (nil = the default x86 port).
func New(t Topology, port ports.Port) (*Host, error) {
	return NewOn(sim.New(), t, port)
}

// NewOn builds a host sharing an existing engine (and therefore clock
// and fault plane) with whatever else runs on it.
func NewOn(eng *sim.Engine, t Topology, port ports.Port) (*Host, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if port == nil {
		port = x86port.Port()
	}
	h := &Host{
		Topo:    t,
		Eng:     eng,
		port:    port,
		lapics:  make([]ports.IRQController, t.Contexts()),
		onIPI:   make([]func(int), t.Contexts()),
		ipiRecv: make([]uint64, t.Contexts()),
	}
	h.Sched = newScheduler(h)
	return h, nil
}

// LAPIC returns the interrupt controller of a hardware context, building
// it on first use: a density point's host delivers IPIs to only a few of
// its contexts.
func (h *Host) LAPIC(c CtxID) ports.IRQController {
	if l := h.lapics[c]; l != nil {
		return l
	}
	l := h.port.NewIRQ(int(c), h.Eng)
	l.SetOnDeliver(func(vec int) { h.ipiArrived(c, vec) })
	h.lapics[c] = l
	return l
}

// OnIPI installs a per-context IPI arrival handler (nil restores the
// default count-and-ack behaviour).
func (h *Host) OnIPI(c CtxID, fn func(vec int)) { h.onIPI[c] = fn }

// ipiArrived runs in event context when a vector lands on context c's
// LAPIC.
func (h *Host) ipiArrived(c CtxID, vec int) {
	h.ipiRecv[c]++
	if fn := h.onIPI[c]; fn != nil {
		fn(vec)
		return
	}
	// Default: the target core's scheduler tick consumes the resched
	// IPI immediately.
	h.LAPIC(c).Ack(vec)
}

// IPILatency reports the delivery latency between two contexts.
func (h *Host) IPILatency(from, to CtxID) sim.Time {
	switch h.Topo.DistanceOf(from, to) {
	case DistSelf:
		return ipiSelf
	case DistSMT:
		return ipiSMT
	case DistCore:
		return ipiCrossCore
	default:
		return ipiCrossNUMA
	}
}

// SendIPI routes a reschedule IPI from one context to another through
// the apic plane: the vector crosses the interconnect with a
// distance-dependent latency and lands on the target LAPIC (where the
// fault plane, if armed, may still drop or delay it).
func (h *Host) SendIPI(from, to CtxID, vec int) {
	h.ipiSent[h.Topo.DistanceOf(from, to)]++
	h.Eng.AtCall(h.Eng.Now()+h.IPILatency(from, to), h.LAPIC(to), uint64(vec))
	if h.tracer != nil {
		h.tracer.Instant(h.ctxTracks[from], obs.KindIPI, obs.LevelNone,
			h.ipiLabel, h.Eng.Now(), uint64(to), uint64(vec))
	}
}

// IPIsSent reports how many IPIs were sent at each distance class.
func (h *Host) IPIsSent() (self, smt, crossCore, crossNUMA uint64) {
	s := h.ipiSent
	return s[DistSelf], s[DistSMT], s[DistCore], s[DistNUMA]
}

// IPIsReceived reports per-context IPI arrivals.
func (h *Host) IPIsReceived() []uint64 { return h.ipiRecv }

// EventsByCore reports IPI arrivals per physical core: the sum of
// IPIsReceived over each core's contexts.
func (h *Host) EventsByCore() []uint64 {
	ev := make([]uint64, h.Topo.Cores())
	for c, n := range h.ipiRecv {
		ev[h.Topo.CoreOf(CtxID(c))] += n
	}
	return ev
}

// SetObs attaches an observability plane built with one track per host
// hardware context (obs.New(topo.Contexts(), opts)). Context tracks are
// renamed to their topology coordinates; IPI sends become instants on
// the sender's track and LAPIC deliveries on the receiver's.
func (h *Host) SetObs(p *obs.Plane) {
	if p == nil {
		h.tracer = nil
		return
	}
	h.tracer = p.Tracer
	h.ctxTracks = make([]int, h.Topo.Contexts())
	h.ipiLabel = p.Tracer.Intern("host.ipi")
	for c := range h.ctxTracks {
		h.ctxTracks[c] = c
		id := CtxID(c)
		p.Tracer.SetTrackName(c, fmt.Sprintf("socket%d/core%d/smt%d",
			h.Topo.SocketOf(id), h.Topo.CoreOf(id), h.Topo.ThreadOf(id)))
		l := h.LAPIC(id)
		l.SetObs(p.Tracer, c, fmt.Sprintf("host.lapic%d", c))
		l.Metrics(p.Metrics, fmt.Sprintf("host.apic.ctx%d", c))
	}
}
