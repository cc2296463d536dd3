package x86

import (
	"strconv"

	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/words"
)

// irr is the local APIC's interrupt request register, the x86 port's
// ports.PendingSet: one bit per vector, and every pending vector is
// acknowledgeable, highest vector first. The controller around it —
// fault consult, TSC-deadline timer, tallies, snapshot framing — is the
// port-generic ports.IRQ.
type irr struct{ ports.Vectors }

// Top returns the highest pending vector.
func (s *irr) Top() (int, bool) { return s.Max() }

// Ack clears vec, reporting whether it was pending.
func (s *irr) Ack(vec int) bool {
	if !s.Has(vec) {
		return false
	}
	s.Remove(vec)
	return true
}

// LoadWords decodes an IRR written by SaveWords: a count and the
// vectors ascending. This encoding is frozen — snapshot section digests
// depend on it.
func (s *irr) LoadWords(r *words.Reader) func() {
	v := ports.LoadVectors(r, "apic: pending vector")
	return func() { s.Vectors = v }
}

// Probe prefixes the pending count.
func (s *irr) Probe(shared string) string {
	return "pending=" + strconv.Itoa(s.Len()) + " " + shared
}

// Metrics registers nothing: the IRR keeps no tallies of its own.
func (s *irr) Metrics(*obs.Registry, string) {}
