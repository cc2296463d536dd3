package armlike

import (
	"fmt"

	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/words"
)

// NumListRegs is the number of hardware list registers the vGIC CPU
// interface exposes. Real GIC implementations ship 4 or 16; the small
// figure keeps the spill/maintenance path exercised under load.
const NumListRegs = 4

// ListRegs is the vGIC CPU interface's pending set, a ports.PendingSet.
// Unlike the LAPIC's IRR, only the vectors sitting in a list register
// are acknowledgeable; when the LRs are full, further vectors spill
// into a software pending set, and a maintenance refill moves the
// lowest spilled vector into the LR an acknowledge frees. Priority is
// GIC-style lowest-INTID-first, and a newcomer that outranks a resident
// LR evicts the lowest-priority one to the spill set, so the LRs
// always hold the NumListRegs lowest pending vectors: the set keeps
// them all in one bitmap.
type ListRegs struct {
	ports.Vectors
	maint obs.Counter // maintenance refills (spill → list register)
}

// Top returns the lowest INTID resident in a list register.
func (s *ListRegs) Top() (int, bool) { return s.Min() }

// Ack consumes vec if it sits in a list register (ICC_IAR only ever
// returns LR contents), refilling the freed LR from the spill set.
func (s *ListRegs) Ack(vec int) bool {
	if !s.Has(vec) || s.Below(vec) >= NumListRegs {
		return false
	}
	s.Remove(vec)
	if s.Len() >= NumListRegs {
		s.maint.Inc()
	}
	return true
}

// split returns the vectors in list registers and the spilled ones.
func (s *ListRegs) split() (lr, spill ports.Vectors) {
	spill = s.Vectors
	for i := 0; i < NumListRegs; i++ {
		if v, ok := spill.Min(); ok {
			spill.Remove(v)
			lr.Add(v)
		}
	}
	return lr, spill
}

// SaveWords writes the list registers and then the spill set, each as
// a count and its vectors ascending. Frozen once shipped — snapshot
// digests depend on it.
func (s *ListRegs) SaveWords(w *words.Writer) {
	lr, spill := s.split()
	lr.SaveWords(w)
	spill.SaveWords(w)
}

// LoadWords decodes list registers and spill set written by SaveWords.
// It rejects any state delivery never produces: more vectors than list
// registers, a spilled vector while a list register is free, and a
// spilled vector that does not rank below every resident one (which
// covers a vector both resident and spilled).
func (s *ListRegs) LoadWords(r *words.Reader) func() {
	lr := ports.LoadVectors(r, "vgic: list-register vector")
	if n := lr.Len(); n > NumListRegs {
		r.Fail(fmt.Errorf("vgic: %d list registers, the interface has %d", n, NumListRegs))
	}
	spill := ports.LoadVectors(r, "vgic: spilled vector")
	low, spilled := spill.Min()
	high, _ := lr.Max()
	switch {
	case !spilled || r.Err() != nil:
	case lr.Len() < NumListRegs:
		r.Fail(fmt.Errorf("vgic: vector %#x spilled while a list register is free", low))
	case low <= high:
		r.Fail(fmt.Errorf("vgic: spilled vector %#x does not rank below list-register vector %#x", low, high))
	}
	return func() {
		s.Vectors = lr
		for v, ok := spill.Min(); ok; v, ok = spill.Min() {
			spill.Remove(v)
			s.Add(v)
		}
	}
}

// Probe prefixes list-register and spill occupancy and appends the
// maintenance tally.
func (s *ListRegs) Probe(shared string) string {
	n := s.Len()
	lr := min(n, NumListRegs)
	return fmt.Sprintf("lr=%d/%d spill=%d %s maint=%d", lr, NumListRegs, n-lr, shared, s.maint.Value())
}

// Metrics registers the maintenance tally under prefix; the
// controller's own four names match the LAPIC's, so port-generic
// dashboards line up.
func (s *ListRegs) Metrics(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+".maint", &s.maint)
}
