// Package apic holds the x86 port's pending-vector set: the local
// APIC's interrupt request register. The controller around it — fault
// consult, TSC-deadline timer, tallies, snapshot framing — is the
// port-generic ports.IRQ; timer accuracy under virtualization is what
// the paper's video-playback experiment (Figure 10) measures, and
// TSC-deadline reprogramming (MSR_WRITE exits) is one of the two
// dominant exit reasons in its profiles.
package apic

import (
	"strconv"

	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/words"
)

// IRR is the LAPIC's interrupt request register, a ports.PendingSet:
// one bit per vector, and every pending vector is acknowledgeable,
// highest vector first.
type IRR struct{ ports.Vectors }

// Top returns the highest pending vector.
func (s *IRR) Top() (int, bool) { return s.Max() }

// Ack clears vec, reporting whether it was pending.
func (s *IRR) Ack(vec int) bool {
	if !s.Has(vec) {
		return false
	}
	s.Remove(vec)
	return true
}

// LoadWords decodes an IRR written by SaveWords: a count and the
// vectors ascending. This encoding is frozen — snapshot section digests
// depend on it.
func (s *IRR) LoadWords(r *words.Reader) func() {
	v := ports.LoadVectors(r, "apic: pending vector")
	return func() { s.Vectors = v }
}

// Probe prefixes the pending count.
func (s *IRR) Probe(shared string) string {
	return "pending=" + strconv.Itoa(s.Len()) + " " + shared
}

// Metrics registers nothing: the IRR keeps no tallies of its own.
func (s *IRR) Metrics(*obs.Registry, string) {}
