// Package apic models the interrupt machinery the experiments depend on:
// a local APIC per hardware context (pending-vector state, TSC-deadline
// one-shot timer) and vector delivery from device models. Timer accuracy
// under virtualization is what the paper's video-playback experiment
// (Figure 10) measures, and TSC-deadline reprogramming (MSR_WRITE exits)
// is one of the two dominant exit reasons in its profiles.
package apic

import (
	"fmt"

	"svtsim/internal/fault"
	"svtsim/internal/obs"
	"svtsim/internal/sim"
)

// Vector numbers used by the simulated machine.
const (
	VecTimer     = 0xEC // TSC-deadline timer
	VecVirtioNet = 0x24
	VecVirtioBlk = 0x25
	VecIPI       = 0xFB
	VecSpurious  = 0xFF
)

// LAPIC is one local APIC. It tracks pending vectors (the IRR) and owns a
// TSC-deadline timer. The zero value is unusable; construct with New.
type LAPIC struct {
	ID  int
	eng *sim.Engine

	pending  [256]bool
	npending int

	deadlineEv sim.EventRef
	// deadline mirrors the armed IA32_TSC_DEADLINE value (0 = disarmed)
	// so snapshot capture can serialize the timer and restore re-arm it.
	deadline   sim.Time
	timerFired obs.Counter
	delivered  obs.Counter
	dropped    obs.Counter
	delayed    obs.Counter
	// onDeliver, when set, is invoked after a vector becomes pending; the
	// machine uses it to wake halted vCPUs. Install with SetOnDeliver.
	onDeliver func(vec int)

	// obsT, when non-nil, receives a delivery instant per vector on the
	// track this LAPIC belongs to.
	obsT     *obs.Tracer
	obsTrack int
	obsLabel obs.Label
}

// SetObs attaches the observability tracer (nil detaches): deliveries
// become instants on track, labelled with the LAPIC's display name.
func (l *LAPIC) SetObs(t *obs.Tracer, track int, name string) {
	l.obsT = t
	l.obsTrack = track
	l.obsLabel = t.Intern(name)
}

// Metrics registers this LAPIC's tallies under prefix (e.g.
// "apic.ctx0") in the registry.
func (l *LAPIC) Metrics(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+".timer_fired", &l.timerFired)
	r.RegisterCounter(prefix+".delivered", &l.delivered)
	r.RegisterCounter(prefix+".dropped", &l.dropped)
	r.RegisterCounter(prefix+".delayed", &l.delayed)
}

// New returns a LAPIC bound to the engine.
func New(id int, eng *sim.Engine) *LAPIC {
	return &LAPIC{ID: id, eng: eng}
}

// SetOnDeliver installs the post-delivery callback (ports.IRQController).
func (l *LAPIC) SetOnDeliver(fn func(vec int)) { l.onDeliver = fn }

// SetDeadline arms the deadline timer (ports.IRQController); on x86 the
// deadline register is IA32_TSC_DEADLINE.
func (l *LAPIC) SetDeadline(t sim.Time) { l.SetTSCDeadline(t) }

// Deliver marks vector vec pending. Delivering an already-pending vector
// is idempotent (edge-collapsing, as on real hardware IRR bits). Delivery
// passes through the fault plane: an injected drop loses the vector and a
// delay re-delivers it later, modelling interconnect misbehaviour between
// a device (or sending core) and this LAPIC.
func (l *LAPIC) Deliver(vec int) {
	if vec < 0 || vec > 255 {
		return
	}
	if l.eng != nil {
		site := fault.SiteIRQ
		if vec == VecIPI {
			site = fault.SiteIPI
		}
		out := l.eng.Inject(site)
		if out.Drop {
			l.dropped.Inc()
			return
		}
		if out.Delay > 0 {
			l.delayed.Inc()
			l.eng.After(out.Delay, func() { l.deliverNow(vec) })
			return
		}
	}
	l.deliverNow(vec)
}

// DeliverDirect marks vec pending, bypassing the fault plane. It is for
// VM-entry event injection: the vector already crossed the interconnect
// (paying any fault consult on that hop) and now lives in the VMCS
// entry-interruption field — internal CPU state that cannot be lost or
// delayed in transit again.
func (l *LAPIC) DeliverDirect(vec int) {
	if vec < 0 || vec > 255 {
		return
	}
	l.deliverNow(vec)
}

func (l *LAPIC) deliverNow(vec int) {
	if l.eng != nil {
		// Idle loops watch the wake epoch: a delivery fired from event
		// context may satisfy a waiter whose condition lives on another
		// LAPIC (nested HLT chains wait at L0 for wakes owned by L1).
		l.eng.NoteWake()
	}
	if !l.pending[vec] {
		l.pending[vec] = true
		l.npending++
	}
	l.delivered.Inc()
	if l.obsT != nil && l.eng != nil {
		kind := obs.KindIRQ
		if vec == VecIPI {
			kind = obs.KindIPI
		}
		l.obsT.Instant(l.obsTrack, kind, obs.LevelNone, l.obsLabel,
			l.eng.Now(), uint64(vec), uint64(l.npending))
	}
	if l.onDeliver != nil {
		l.onDeliver(vec)
	}
}

// PendingVector returns the highest-priority pending vector, x86-style
// (higher vector number wins), without acknowledging it.
func (l *LAPIC) PendingVector() (int, bool) {
	if l.npending == 0 {
		return 0, false
	}
	for v := 255; v >= 0; v-- {
		if l.pending[v] {
			return v, true
		}
	}
	return 0, false
}

// HasPending reports whether any vector is pending.
func (l *LAPIC) HasPending() bool { return l.npending > 0 }

// Ack consumes a pending vector (the interrupt-acknowledge cycle).
// It reports whether the vector was pending.
func (l *LAPIC) Ack(vec int) bool {
	if vec < 0 || vec > 255 || !l.pending[vec] {
		return false
	}
	l.pending[vec] = false
	l.npending--
	return true
}

// SetTSCDeadline arms the one-shot deadline timer for absolute virtual
// time t; the timer delivers VecTimer at t. A zero deadline disarms the
// timer, and re-arming replaces the previous deadline — both as the
// architecture specifies for IA32_TSC_DEADLINE.
func (l *LAPIC) SetTSCDeadline(t sim.Time) {
	l.eng.Cancel(l.deadlineEv)
	l.deadlineEv = sim.EventRef{}
	l.deadline = t
	if t == 0 {
		return
	}
	l.deadlineEv = l.eng.At(t, func() {
		l.deadlineEv = sim.EventRef{}
		l.deadline = 0
		l.timerFired.Inc()
		l.Deliver(VecTimer)
	})
}

// TimerArmed reports whether a deadline is pending.
func (l *LAPIC) TimerArmed() bool { return l.deadlineEv.Pending() }

// Delivered reports the total vectors delivered (including collapsed ones).
func (l *LAPIC) Delivered() uint64 { return l.delivered.Value() }

// Dropped reports vectors lost to injected faults.
func (l *LAPIC) Dropped() uint64 { return l.dropped.Value() }

// Delayed reports vectors deferred by injected faults.
func (l *LAPIC) Delayed() uint64 { return l.delayed.Value() }

// ProbeState dumps the IRR for stall/deadlock reports.
func (l *LAPIC) ProbeState() string {
	vec, ok := l.PendingVector()
	top := "none"
	if ok {
		top = fmt.Sprintf("%#02x", vec)
	}
	return fmt.Sprintf("pending=%d top=%s timer=%v delivered=%d dropped=%d delayed=%d",
		l.npending, top, l.TimerArmed(), l.Delivered(), l.Dropped(), l.Delayed())
}
