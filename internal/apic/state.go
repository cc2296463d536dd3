package apic

import (
	"svtsim/internal/sim"
	"svtsim/internal/words"
)

// SaveWords is the port-level snapshot codec (ports.IRQController): the
// pending-vector set (IRR) as a count and the vectors ascending, then
// the armed TSC deadline (0 = disarmed). Delivery tallies are
// diagnostics, not architectural state, and are not written. This
// encoding is frozen — snapshot section digests depend on it.
func (l *LAPIC) SaveWords(w *words.Writer) {
	w.Table(l.npending, 1, func() {
		for v := 0; v < 256; v++ {
			if l.pending[v] {
				w.Word(uint64(v))
			}
		}
	})
	w.Word(uint64(l.deadline))
}

// LoadWords restores state captured by SaveWords: it replaces the
// pending set and re-arms (or disarms) the deadline timer. Re-arming
// goes through SetTSCDeadline so the one-shot event is rescheduled on
// the engine; a deadline already in the past is clamped to now by the
// engine and fires on the next dispatch.
func (l *LAPIC) LoadWords(r *words.Reader) {
	var pending [256]bool
	n := r.Count(1)
	for i, next := 0, uint64(0); i < n; i++ {
		v := r.Range(next, 256, "apic: pending vector")
		pending[v], next = true, v+1
	}
	deadline := sim.Time(r.Word())
	if r.Err() != nil {
		return
	}
	l.pending, l.npending = pending, n
	l.SetTSCDeadline(deadline)
}
