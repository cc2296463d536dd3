package vmcs

import (
	"sort"

	"svtsim/internal/isa"
)

// State is the canonical serializable form of one VMCS: every field the
// descriptor holds, the software-managed GPR save area, the shadowing
// flag, and the semantic MSR-bitmap and dirty-tracking sets in sorted
// order. The Shadow link is deliberately not part of the state — it is
// wiring between descriptors, re-established by machine construction,
// not per-VM content that migrates.
type State struct {
	Fields        [NumFields]uint64
	GPRs          [isa.NumGPR]uint64
	ShadowEnabled bool
	ExitingMSRs   []uint32 // sorted ascending
	Dirty         []Field  // sorted ascending
}

// SaveState captures the VMCS content.
func (v *VMCS) SaveState() State {
	s := State{Fields: v.fields, GPRs: v.GPRs, ShadowEnabled: v.ShadowEnabled}
	for a := range v.ExitingMSRs {
		s.ExitingMSRs = append(s.ExitingMSRs, a)
	}
	sort.Slice(s.ExitingMSRs, func(i, j int) bool { return s.ExitingMSRs[i] < s.ExitingMSRs[j] })
	for f := Field(0); f < NumFields; f++ {
		if v.Dirty(f) {
			s.Dirty = append(s.Dirty, f)
		}
	}
	return s
}

// LoadState overwrites the VMCS content from a saved state.
func (v *VMCS) LoadState(s State) {
	v.fields = s.Fields
	v.GPRs = s.GPRs
	v.ShadowEnabled = s.ShadowEnabled
	clear(v.ExitingMSRs)
	for _, a := range s.ExitingMSRs {
		v.ExitingMSRs[a] = true
	}
	clear(v.dirty[:])
	for _, f := range s.Dirty {
		if f < NumFields {
			v.dirty[f/64] |= 1 << (f % 64)
		}
	}
}
