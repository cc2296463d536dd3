package machine

import (
	"fmt"
	"sort"

	"svtsim/internal/ept"
	"svtsim/internal/isa"
	"svtsim/internal/swsvt"
	"svtsim/internal/words"
)

// This file provides the whole-machine hooks the differential scenario
// harness (internal/check) runs against: a digest of the architecturally
// visible end state, and live evaluation of the DESIGN §6 invariants that
// are decidable from the assembled machine.

// StateDigest summarizes the nested guest's time-invariant architectural
// end state: the guest hypervisor's emulated MSR store for its nested VM,
// plus any commands stranded on the SW-SVt reflection rings. Two runs of
// the same schedule under different modes must produce the same digest —
// that is the paper's transparency claim. A healthy run always drains
// both rings (the protocol is strictly request/response), so residual
// commands contribute nothing across modes; a stranded CMD_VM_TRAP or
// CMD_VM_RESUME is protocol state a broken restore dropped or duplicated,
// and folding it here is what makes restore-transparency digest-checkable
// (the reflection-protocol gap the ROADMAP flagged). Deliberately
// excluded because they are time-variant, not architecture-variant:
// vmcs12 GuestRIP (it advances once per reflected exit, and the number of
// HLT wakeup spins a wait loop takes differs legitimately between modes)
// and the TSC-deadline MSR (it stores an absolute virtual-time deadline).
// Command Seq numbers are excluded for the same reason the push counters
// are: they count protocol round trips, which differ across modes.
func (m *Machine) StateDigest() uint64 {
	h := words.FNVOffset
	if m.VC12 != nil {
		msrs := m.VC12.MSRSnapshot()
		addrs := make([]uint32, 0, len(msrs))
		for a := range msrs {
			if a == isa.MSRTSCDeadline {
				continue
			}
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			h = words.FNVWord(h, uint64(a))
			h = words.FNVWord(h, msrs[a])
		}
	}
	if m.Chan != nil {
		for _, ring := range []*swsvt.Ring{m.Chan.ToSVt, m.Chan.FromSVt} {
			for _, c := range ring.Pending() {
				h = words.FNVWord(h, uint64(c.Type))
				h = words.FNVWord(h, c.Exit)
			}
		}
	}
	return h
}

// eptProbes are L2 guest-physical addresses whose composed translation is
// checked against the statically known identity ept02 must implement:
// L2-physical x maps to host-physical L1RAMBase+L2InL1Base+x.
var eptProbes = []uint64{0, L2RAMSize / 2, L2RAMSize - 0x1000}

// CheckInvariants evaluates the DESIGN §6 machine-level invariants on the
// live machine and returns every violation found. It never charges
// virtual time, so the harness can call it at op boundaries without
// perturbing the run.
func (m *Machine) CheckInvariants() []error {
	var errs []error
	if m.Core != nil {
		if err := m.Core.RegFile().CheckInvariants(); err != nil {
			errs = append(errs, err)
		}
	}
	if m.Ept02 != nil {
		for _, gpa := range eptProbes {
			pa, err := m.Ept02.Translate(gpa, ept.PermR)
			if err != nil {
				errs = append(errs, fmt.Errorf("machine: ept02 translate %#x: %v", gpa, err))
				continue
			}
			if want := L1RAMBase + L2InL1Base + gpa; pa != want {
				errs = append(errs, fmt.Errorf("machine: ept02 composition broken: %#x -> %#x, want %#x", gpa, pa, want))
			}
		}
	}
	return errs
}
