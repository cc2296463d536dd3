// Package core implements SVt — the paper's primary contribution — as a
// feature layered on the SMT core: the architectural additions of the
// paper's Table 2 (the SVt_visor / SVt_vm / SVt_nested VMCS fields, the
// ctxtld/ctxtst cross-context register access instructions, and the
// per-core µ-registers), their configuration across the virtualization
// hierarchy, and the invariants the design promises (§3–§4).
//
// The micro-architectural mechanics (fetch-target switching, register
// residency, µ-register caching on VMPTRLD) live in internal/cpu, where
// SMT already keeps the replicated thread state; this package is the
// feature's architectural surface: what a hypervisor programs and what
// the design guarantees.
package core

import (
	"fmt"

	"svtsim/internal/cpu"
	"svtsim/internal/vmcs"
)

// Hierarchy assigns each virtualization level to a hardware context, as
// the host hypervisor does when it enables SVt for a VM stack (§4: "for
// simplicity, the hypervisor assigns hardware context n to the nth
// virtualization level").
type Hierarchy struct {
	Visor  cpu.ContextID // L0
	Guest  cpu.ContextID // L1
	Nested cpu.ContextID // L2 (NoContext when the guest runs no nested VM)
}

// DefaultHierarchy is the canonical assignment: context n for level n.
func DefaultHierarchy() Hierarchy {
	return Hierarchy{Visor: 0, Guest: 1, Nested: 2}
}

// Validate checks the assignment against the core's context count and the
// design's single-active-context rule.
func (h Hierarchy) Validate(c *cpu.Core) error {
	check := func(name string, id cpu.ContextID, optional bool) error {
		if id == cpu.NoContext {
			if optional {
				return nil
			}
			return fmt.Errorf("core: %s context unset", name)
		}
		if int(id) < 0 || int(id) >= c.Contexts() {
			return fmt.Errorf("core: %s context %d outside the core's %d contexts", name, id, c.Contexts())
		}
		return nil
	}
	if err := check("visor", h.Visor, false); err != nil {
		return err
	}
	if err := check("guest", h.Guest, false); err != nil {
		return err
	}
	if err := check("nested", h.Nested, true); err != nil {
		return err
	}
	if h.Visor == h.Guest || (h.Nested != cpu.NoContext && (h.Nested == h.Visor || h.Nested == h.Guest)) {
		return fmt.Errorf("core: virtualization levels must occupy distinct contexts (%d/%d/%d)", h.Visor, h.Guest, h.Nested)
	}
	return nil
}

func field(id cpu.ContextID) uint64 {
	if id == cpu.NoContext {
		return vmcs.InvalidContext
	}
	return uint64(id)
}

// ConfigureVisorVMCS programs the SVt fields of the VMCS the host
// hypervisor uses to run its guest (vmcs01): where the visor runs, where
// the guest runs, and — once the guest hosts a nested VM — which context
// the guest's cross-context accesses are virtualized onto (§4 step A).
func (h Hierarchy) ConfigureVisorVMCS(v *vmcs.VMCS) {
	v.Write(vmcs.SVtVisor, field(h.Visor))
	v.Write(vmcs.SVtVM, field(h.Guest))
	v.Write(vmcs.SVtNested, field(h.Nested))
}

// ConfigureNestedVMCS programs the SVt fields of the VMCS hardware
// actually runs the nested VM on (vmcs02): exits from the nested context
// resume the visor directly, with no software context switch in between.
func (h Hierarchy) ConfigureNestedVMCS(v *vmcs.VMCS) {
	v.Write(vmcs.SVtVisor, field(h.Visor))
	v.Write(vmcs.SVtVM, field(h.Nested))
	v.Write(vmcs.SVtNested, vmcs.InvalidContext)
}

// Enable turns the core into SVt mode after validating the assignment:
// VM transitions become stall/resume events, registers stay resident per
// context, and external interrupts steer to the visor context (§3.1).
func (h Hierarchy) Enable(c *cpu.Core) error {
	if err := h.Validate(c); err != nil {
		return err
	}
	c.EnableSVt()
	return nil
}
