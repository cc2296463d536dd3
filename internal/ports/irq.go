package ports

import (
	"svtsim/internal/obs"
	"svtsim/internal/sim"
	"svtsim/internal/words"
)

// IRQController is the per-hardware-context interrupt controller a port
// supplies: the x86 port's LAPIC (IRR bitmap, highest-vector-wins) or
// the armlike port's vGIC CPU interface (bounded list registers,
// lowest-INTID-wins, maintenance refills). The engine — core idle
// loops, hypervisor injection, host IPI fabric, snapshot — drives
// controllers only through this interface.
type IRQController interface {
	// Deliver marks vec pending, passing through the fault plane
	// (injected drops lose the vector, delays re-deliver it later).
	Deliver(vec int)
	// DeliverDirect marks vec pending, bypassing the fault plane: the
	// vector already crossed the interconnect and now lives in
	// entry-injection state that cannot be lost in transit again.
	DeliverDirect(vec int)
	// PendingVector returns the controller's highest-priority pending
	// vector without acknowledging it. Priority order is the port's:
	// highest vector number on x86, lowest on the vGIC.
	PendingVector() (int, bool)
	// HasPending reports whether any vector is deliverable.
	HasPending() bool
	// Ack consumes a pending vector (the interrupt-acknowledge cycle),
	// reporting whether it was pending.
	Ack(vec int) bool

	// SetDeadline arms the one-shot deadline timer for absolute virtual
	// time t (0 disarms); at deadline the controller delivers VecTimer.
	SetDeadline(t sim.Time)
	// TimerArmed reports whether a deadline is pending.
	TimerArmed() bool

	// SetOnDeliver installs the callback invoked after a vector becomes
	// pending; the machine and host use it to wake halted consumers.
	SetOnDeliver(fn func(vec int))

	// Diagnostics and observability.
	Delivered() uint64
	Dropped() uint64
	Delayed() uint64
	SetObs(t *obs.Tracer, track int, name string)
	Metrics(r *obs.Registry, prefix string)
	ProbeState() string

	// SaveWords/LoadWords are the snapshot codec: the controller's
	// architectural state as a flat word stream. The encoding is the
	// port's own (and is frozen once shipped — snapshot digests depend
	// on it); LoadWords must reject malformed streams and leave the
	// controller untouched when it does.
	SaveWords(w *words.Writer)
	LoadWords(r *words.Reader)
}
