package host

import (
	"fmt"

	"svtsim/internal/obs"
	"svtsim/internal/ports"
	x86port "svtsim/internal/ports/x86"
	"svtsim/internal/sim"
)

// Params are the host-level cost knobs: IPI latency by topological
// distance (self-IPIs short-circuit in the LAPIC, sibling IPIs stay
// on-die, cross-core hops cross the ring, cross-socket hops cross the
// interconnect), the scheduler quantum, and the SMT throughput share —
// the fraction of a core's single-thread throughput each sibling
// retains when both hardware contexts issue at once (§6.4's
// sibling-cycle-stealing discussion; ~0.7 is the usual 1.4x SMT
// speedup split two ways).
type Params struct {
	IPISelf      sim.Time
	IPISMT       sim.Time
	IPICrossCore sim.Time
	IPICrossNUMA sim.Time

	Quantum  sim.Time
	SMTShare float64
	// Port supplies the per-context interrupt controllers (nil = the
	// default x86 port). It is identity, not a cost knob, so the
	// svtsimd digest fingerprint carries the port name separately.
	Port ports.Port
	// RebalanceEvery is the number of quanta between L0 load-balancer
	// passes (0 disables migration).
	RebalanceEvery int
}

// DefaultParams returns the host cost model used by the experiments.
func DefaultParams() Params {
	return Params{
		IPISelf:        200,
		IPISMT:         450,
		IPICrossCore:   900,
		IPICrossNUMA:   4500,
		Quantum:        50_000, // 50us scheduler tick
		SMTShare:       0.7,
		RebalanceEvery: 20,
	}
}

// Host is the fleet-scale machine: every hardware context of the
// topology owns a LAPIC on the apic plane and is a placement target for
// the L0 scheduler. A Host either owns its engine (New) or grafts onto an
// existing machine's engine (NewOn — the differential harness runs a
// guest stack and a multi-core host on the same clock).
type Host struct {
	Topo Topology
	P    Params
	// Eng is the one engine every context's events, the host's clock and
	// its fault plane live on.
	Eng *sim.Engine

	lapics []ports.IRQController

	// OnIPI, when set for a context, handles reschedule-IPI arrival
	// there instead of the default (count and ack). The differential
	// harness routes these into a guest machine's L1 interrupt plane.
	onIPI []func(vec int)

	// Accounting.
	ipiSent      [4]uint64 // by Distance
	ipiRecv      []uint64  // per context
	eventsByCore []uint64  // dispatches attributed to each core via engine origin

	tracer    *obs.Tracer
	ctxTracks []int
	ipiLabel  obs.Label

	Sched *Scheduler
}

// New builds a host with its own engine.
func New(t Topology, p Params) (*Host, error) {
	return NewOn(sim.New(), t, p)
}

// NewOn builds a host sharing an existing engine (and therefore clock
// and fault plane) with whatever else runs on it.
func NewOn(eng *sim.Engine, t Topology, p Params) (*Host, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if p.Port == nil {
		p.Port = x86port.Port()
	}
	h := &Host{
		Topo:         t,
		P:            p,
		Eng:          eng,
		lapics:       make([]ports.IRQController, t.Contexts()),
		onIPI:        make([]func(int), t.Contexts()),
		ipiRecv:      make([]uint64, t.Contexts()),
		eventsByCore: make([]uint64, t.Cores()),
	}
	for c := range h.lapics {
		c := CtxID(c)
		l := p.Port.NewIRQ(int(c), eng)
		l.SetOnDeliver(func(vec int) { h.ipiArrived(c, vec) })
		h.lapics[c] = l
	}
	h.Sched = newScheduler(h)
	return h, nil
}

// LAPIC returns the interrupt controller of a hardware context.
func (h *Host) LAPIC(c CtxID) ports.IRQController { return h.lapics[c] }

// OnIPI installs a per-context IPI arrival handler (nil restores the
// default count-and-ack behaviour).
func (h *Host) OnIPI(c CtxID, fn func(vec int)) { h.onIPI[c] = fn }

// ipiArrived runs in event context when a vector lands on context c's
// LAPIC; the engine's origin tag attributes the dispatch to a core.
func (h *Host) ipiArrived(c CtxID, vec int) {
	h.ipiRecv[c]++
	if o := h.Eng.Origin(); o >= 0 && o < len(h.eventsByCore) {
		h.eventsByCore[o]++
	}
	if fn := h.onIPI[c]; fn != nil {
		fn(vec)
		return
	}
	// Default: the target core's scheduler tick consumes the resched
	// IPI immediately.
	h.lapics[c].Ack(vec)
}

// IPILatency reports the delivery latency between two contexts.
func (h *Host) IPILatency(from, to CtxID) sim.Time {
	switch h.Topo.DistanceOf(from, to) {
	case DistSelf:
		return h.P.IPISelf
	case DistSMT:
		return h.P.IPISMT
	case DistCore:
		return h.P.IPICrossCore
	default:
		return h.P.IPICrossNUMA
	}
}

// SendIPI routes a reschedule IPI from one context to another through
// the apic plane: the vector crosses the interconnect with a
// distance-dependent latency and lands on the target LAPIC (where the
// fault plane, if armed, may still drop or delay it). The delivery
// event is attributed to the target's core.
func (h *Host) SendIPI(from, to CtxID, vec int) {
	h.ipiSent[h.Topo.DistanceOf(from, to)]++
	target := h.lapics[to]
	h.Deliver(from, to, 0, func() { target.Deliver(vec) })
	if h.tracer != nil {
		h.tracer.Instant(h.ctxTracks[from], obs.KindIPI, obs.LevelNone,
			h.ipiLabel, h.Eng.Now(), uint64(to), uint64(vec))
	}
}

// Deliver runs fn on the target context's engine after the
// interconnect crossing plus extra — the host's cross-core packet
// fabric. It is SendIPI without the LAPIC hop: netstack conduits
// between a balancer context and backend contexts ride it, so segment
// delivery is priced by topology distance. The delivery event is
// attributed to the target's core.
func (h *Host) Deliver(from, to CtxID, extra sim.Time, fn func()) {
	if extra < 0 {
		extra = 0
	}
	prev := h.Eng.Origin()
	h.Eng.SetOrigin(h.Topo.CoreOf(to))
	h.Eng.After(h.IPILatency(from, to)+extra, fn)
	h.Eng.SetOrigin(prev)
}

// IPIsSent reports how many IPIs were sent at each distance class.
func (h *Host) IPIsSent() (self, smt, crossCore, crossNUMA uint64) {
	s := h.ipiSent
	return s[DistSelf], s[DistSMT], s[DistCore], s[DistNUMA]
}

// IPIsReceived reports per-context IPI arrivals.
func (h *Host) IPIsReceived() []uint64 { return h.ipiRecv }

// EventsByCore reports shared-engine event dispatches attributed (via
// origin tags) to each physical core.
func (h *Host) EventsByCore() []uint64 { return h.eventsByCore }

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
	for c, l := range h.lapics {
		h.ctxTracks[c] = c
		id := CtxID(c)
		p.Tracer.SetTrackName(c, fmt.Sprintf("socket%d/core%d/smt%d",
			h.Topo.SocketOf(id), h.Topo.CoreOf(id), h.Topo.ThreadOf(id)))
		l.SetObs(p.Tracer, c, fmt.Sprintf("host.lapic%d", c))
		l.Metrics(p.Metrics, fmt.Sprintf("host.apic.ctx%d", c))
	}
}
