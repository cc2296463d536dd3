package ports

import (
	"fmt"
	"math/bits"

	"svtsim/internal/fault"
	"svtsim/internal/obs"
	"svtsim/internal/sim"
	"svtsim/internal/words"
)

// IRQController is the per-hardware-context interrupt controller every
// port's machines use. The engine — core idle loops, hypervisor
// injection, host IPI fabric, snapshot — drives controllers only
// through it.
type IRQController = *IRQ

// PendingSet is the part of an interrupt controller that differs by
// port: which vectors are pending, which of them the guest may
// acknowledge and in what order, and how the set is written to a
// snapshot. x86's is the LAPIC's IRR (highest vector first); armlike's
// is the vGIC's list registers plus spill (lowest INTID first). The
// zero value is an empty set, and the controller passes only vectors
// in 0..255.
type PendingSet interface {
	// Add marks vec pending; adding a pending vector changes nothing
	// (edge collapse).
	Add(vec int)
	// Top returns the highest-priority acknowledgeable vector.
	Top() (int, bool)
	// Ack consumes vec if it is acknowledgeable, reporting whether it
	// was.
	Ack(vec int) bool
	// Len counts the pending vectors, acknowledgeable or not.
	Len() int
	// SaveWords writes the set in the port's frozen encoding.
	SaveWords(w *words.Writer)
	// LoadWords decodes a set written by SaveWords and returns the
	// function that installs it; the controller calls that only once
	// the rest of its stream has decoded.
	LoadWords(r *words.Reader) (install func())
	// Probe wraps the controller's shared stall-report fields in the
	// set's own.
	Probe(shared string) string
	// Metrics registers the set's own tallies under prefix, if it keeps
	// any.
	Metrics(r *obs.Registry, prefix string)
}

// IRQ is the interrupt controller: a port's pending set plus what every
// port shares — the fault-plane consult and delayed re-delivery, the
// wake epoch, the one-shot deadline timer, the delivery tallies, trace
// instants, metrics, the stall probe and the snapshot framing. Build
// one with NewIRQ.
type IRQ struct {
	eng *sim.Engine
	set PendingSet

	deadlineEv sim.EventRef
	// deadline mirrors the armed deadline (0 = disarmed) so snapshot
	// capture can serialize the timer and restore re-arm it.
	deadline   sim.Time
	timerFired obs.Counter
	delivered  obs.Counter
	dropped    obs.Counter
	delayed    obs.Counter
	// onDeliver, when set, is invoked after a vector becomes pending;
	// the machine and host use it to wake halted consumers.
	onDeliver func(vec int)

	// obsT, when non-nil, receives a delivery instant per vector on the
	// track this controller belongs to.
	obsT     *obs.Tracer
	obsTrack int
	obsLabel obs.Label
}

// NewIRQ returns a controller bound to eng over an empty pending set of
// type S, allocated together with it.
func NewIRQ[S any, P interface {
	*S
	PendingSet
}](eng *sim.Engine) *IRQ {
	c := new(struct {
		irq IRQ
		set S
	})
	c.irq = IRQ{eng: eng, set: P(&c.set)}
	return &c.irq
}

// SetObs attaches the observability tracer (nil detaches): deliveries
// become instants on track, labelled with the controller's display
// name.
func (c *IRQ) SetObs(t *obs.Tracer, track int, name string) {
	c.obsT = t
	c.obsTrack = track
	c.obsLabel = t.Intern(name)
}

// Metrics registers the controller's tallies, and its pending set's,
// under prefix (e.g. "apic.ctx0").
func (c *IRQ) Metrics(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+".timer_fired", &c.timerFired)
	r.RegisterCounter(prefix+".delivered", &c.delivered)
	r.RegisterCounter(prefix+".dropped", &c.dropped)
	r.RegisterCounter(prefix+".delayed", &c.delayed)
	c.set.Metrics(r, prefix)
}

// SetOnDeliver installs the callback invoked after a vector becomes
// pending.
func (c *IRQ) SetOnDeliver(fn func(vec int)) { c.onDeliver = fn }

// Deliver marks vec pending. Delivery passes through the fault plane:
// an injected drop loses the vector and a delay re-delivers it later,
// modelling interconnect misbehaviour between a device (or sending
// core) and this controller. Vectors outside 0..255 are ignored.
func (c *IRQ) Deliver(vec int) {
	if vec < 0 || vec > 255 {
		return
	}
	site := fault.SiteIRQ
	if vec == VecIPI {
		site = fault.SiteIPI
	}
	out := c.eng.Inject(site)
	if out.Drop {
		c.dropped.Inc()
		return
	}
	if out.Delay > 0 {
		c.delayed.Inc()
		c.eng.AtCall(c.eng.Now()+out.Delay, (*redelivery)(c), uint64(vec))
		return
	}
	c.deliverNow(vec)
}

// Fire implements sim.Handler: vector arg arrives from the interconnect
// (a host IPI), through the fault plane like any Deliver.
func (c *IRQ) Fire(arg uint64) { c.Deliver(int(arg)) }

// redelivery is the controller's second event kind: a vector the fault
// plane delayed lands, past the fault plane.
type redelivery IRQ

// Fire implements sim.Handler.
func (r *redelivery) Fire(arg uint64) { (*IRQ)(r).deliverNow(int(arg)) }

// DeliverDirect marks vec pending, bypassing the fault plane. It is for
// VM-entry event injection: the vector already crossed the interconnect
// (paying any fault consult on that hop) and now lives in entry-
// injection state that cannot be lost or delayed in transit again.
func (c *IRQ) DeliverDirect(vec int) {
	if vec < 0 || vec > 255 {
		return
	}
	c.deliverNow(vec)
}

func (c *IRQ) deliverNow(vec int) {
	// Idle loops watch the wake epoch: a delivery fired from event
	// context may satisfy a waiter whose condition lives on another
	// controller (nested HLT chains wait at L0 for wakes owned by L1).
	c.eng.NoteWake()
	c.set.Add(vec)
	c.delivered.Inc()
	if c.obsT != nil {
		kind := obs.KindIRQ
		if vec == VecIPI {
			kind = obs.KindIPI
		}
		c.obsT.Instant(c.obsTrack, kind, obs.LevelNone, c.obsLabel,
			c.eng.Now(), uint64(vec), uint64(c.set.Len()))
	}
	if c.onDeliver != nil {
		c.onDeliver(vec)
	}
}

// PendingVector returns the highest-priority acknowledgeable vector
// without acknowledging it. Priority order is the port's: highest
// vector number on x86, lowest on the vGIC.
func (c *IRQ) PendingVector() (int, bool) { return c.set.Top() }

// HasPending reports whether any vector is pending, acknowledgeable or
// not.
func (c *IRQ) HasPending() bool { return c.set.Len() > 0 }

// Ack consumes a pending vector (the interrupt-acknowledge cycle),
// reporting whether it was acknowledgeable.
func (c *IRQ) Ack(vec int) bool {
	return vec >= 0 && vec <= 255 && c.set.Ack(vec)
}

// SetDeadline arms the one-shot deadline timer (IA32_TSC_DEADLINE on
// x86, the virtual-timer comparator on armlike) for absolute virtual
// time t; the timer delivers VecTimer at t. A zero deadline disarms
// the timer, re-arming replaces the previous deadline, and a deadline
// already past fires at the next dispatch.
func (c *IRQ) SetDeadline(t sim.Time) {
	c.eng.Cancel(c.deadlineEv)
	c.deadlineEv = sim.EventRef{}
	c.deadline = t
	if t == 0 {
		return
	}
	c.deadlineEv = c.eng.At(t, func() {
		c.deadlineEv = sim.EventRef{}
		c.deadline = 0
		c.timerFired.Inc()
		c.Deliver(VecTimer)
	})
}

// TimerArmed reports whether a deadline is pending.
func (c *IRQ) TimerArmed() bool { return c.deadlineEv.Pending() }

// Delivered reports the total vectors delivered (including collapsed
// ones).
func (c *IRQ) Delivered() uint64 { return c.delivered.Value() }

// Dropped reports vectors lost to injected faults.
func (c *IRQ) Dropped() uint64 { return c.dropped.Value() }

// Delayed reports vectors deferred by injected faults.
func (c *IRQ) Delayed() uint64 { return c.delayed.Value() }

// ProbeState dumps the pending state for stall and deadlock reports.
func (c *IRQ) ProbeState() string {
	top := "none"
	if vec, ok := c.PendingVector(); ok {
		top = fmt.Sprintf("%#02x", vec)
	}
	return c.set.Probe(fmt.Sprintf("top=%s timer=%v delivered=%d dropped=%d delayed=%d",
		top, c.TimerArmed(), c.Delivered(), c.Dropped(), c.Delayed()))
}

// SaveWords is the snapshot codec: the pending set in the port's
// encoding, then the armed deadline (0 = disarmed). Delivery tallies
// are diagnostics, not architectural state, and are not written. Both
// ports' encodings are frozen — snapshot section digests depend on
// them.
func (c *IRQ) SaveWords(w *words.Writer) {
	c.set.SaveWords(w)
	w.Word(uint64(c.deadline))
}

// LoadWords restores state captured by SaveWords: it replaces the
// pending set and re-arms (or disarms) the deadline timer. A malformed
// stream leaves the controller untouched.
func (c *IRQ) LoadWords(r *words.Reader) {
	install := c.set.LoadWords(r)
	deadline := sim.Time(r.Word())
	if r.Err() != nil {
		return
	}
	install()
	c.SetDeadline(deadline)
}

// Vectors is a set of vectors 0..255, one bit each, with its count
// kept so that idle loops polling for a pending vector read one word;
// the zero value is empty. Both ports keep their pending vectors in one.
type Vectors struct {
	bits [4]uint64
	n    int
}

// Has reports whether vec is in the set.
func (s *Vectors) Has(vec int) bool { return s.bits[vec>>6]&(1<<(vec&63)) != 0 }

// Add puts vec in the set.
func (s *Vectors) Add(vec int) {
	if !s.Has(vec) {
		s.bits[vec>>6] |= 1 << (vec & 63)
		s.n++
	}
}

// Remove takes vec out of the set.
func (s *Vectors) Remove(vec int) {
	if s.Has(vec) {
		s.bits[vec>>6] &^= 1 << (vec & 63)
		s.n--
	}
}

// Len counts the set.
func (s *Vectors) Len() int { return s.n }

// Min returns the lowest vector in the set.
func (s *Vectors) Min() (int, bool) {
	for i, w := range s.bits {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// Max returns the highest vector in the set.
func (s *Vectors) Max() (int, bool) {
	for i := len(s.bits) - 1; i >= 0; i-- {
		if w := s.bits[i]; w != 0 {
			return i<<6 + 63 - bits.LeadingZeros64(w), true
		}
	}
	return 0, false
}

// Below counts the vectors in the set lower than vec.
func (s *Vectors) Below(vec int) int {
	n := 0
	for _, w := range s.bits[:vec>>6] {
		n += bits.OnesCount64(w)
	}
	return n + bits.OnesCount64(s.bits[vec>>6]&(1<<(vec&63)-1))
}

// SaveWords writes the set as a count and then its vectors ascending.
func (s *Vectors) SaveWords(w *words.Writer) {
	w.Table(s.n, 1, func() {
		for i, x := range s.bits {
			for ; x != 0; x &= x - 1 {
				w.Word(uint64(i<<6 + bits.TrailingZeros64(x)))
			}
		}
	})
}

// LoadVectors reads a set written by Vectors.SaveWords, failing r
// unless the vectors strictly ascend within 0..255; what names a vector
// in that error.
func LoadVectors(r *words.Reader, what string) Vectors {
	var s Vectors
	n := r.Count(1)
	for i, next := 0, uint64(0); i < n && r.Err() == nil; i++ {
		v := r.Range(next, 256, what)
		s.Add(int(v))
		next = v + 1
	}
	return s
}
