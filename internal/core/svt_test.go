package core

import (
	"fmt"
	"testing"

	"svtsim/internal/cost"
	"svtsim/internal/cpu"
	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/vmcs"
)

func newCore(n int) *cpu.Core {
	m := cost.Baseline()
	return cpu.New(sim.New(), &m, n)
}

func TestHierarchyValidate(t *testing.T) {
	c := newCore(3)
	if err := DefaultHierarchy().Validate(c); err != nil {
		t.Fatal(err)
	}
	// Too few contexts.
	if err := DefaultHierarchy().Validate(newCore(2)); err == nil {
		t.Fatal("3-level hierarchy must not fit a 2-context core")
	}
	// Overlapping contexts.
	if err := (Hierarchy{Visor: 0, Guest: 0, Nested: 2}).Validate(c); err == nil {
		t.Fatal("levels must occupy distinct contexts")
	}
	// A two-level hierarchy (no nested VM) is valid.
	if err := (Hierarchy{Visor: 0, Guest: 1, Nested: cpu.NoContext}).Validate(c); err != nil {
		t.Fatal(err)
	}
	// Unset visor is invalid.
	if err := (Hierarchy{Visor: cpu.NoContext, Guest: 1}).Validate(c); err == nil {
		t.Fatal("visor context must be set")
	}
}

func TestConfigureVMCS(t *testing.T) {
	h := DefaultHierarchy()
	v01 := vmcs.New("vmcs01")
	h.ConfigureVisorVMCS(v01)
	if v01.Read(vmcs.SVtVisor) != 0 || v01.Read(vmcs.SVtVM) != 1 || v01.Read(vmcs.SVtNested) != 2 {
		t.Fatalf("vmcs01 SVt fields wrong: %d/%d/%d",
			v01.Read(vmcs.SVtVisor), v01.Read(vmcs.SVtVM), v01.Read(vmcs.SVtNested))
	}
	v02 := vmcs.New("vmcs02")
	h.ConfigureNestedVMCS(v02)
	if v02.Read(vmcs.SVtVisor) != 0 || v02.Read(vmcs.SVtVM) != 2 {
		t.Fatal("vmcs02 SVt fields wrong")
	}
	if v02.Read(vmcs.SVtNested) != vmcs.InvalidContext {
		t.Fatal("vmcs02 nested field must be invalid")
	}
}

func TestTwoLevelHierarchyFields(t *testing.T) {
	h := Hierarchy{Visor: 0, Guest: 1, Nested: cpu.NoContext}
	v := vmcs.New("vmcs01")
	h.ConfigureVisorVMCS(v)
	if v.Read(vmcs.SVtNested) != vmcs.InvalidContext {
		t.Fatal("no nested VM: SVt_nested must be the invalid value (§4)")
	}
}

func TestEnableAndInvariants(t *testing.T) {
	c := newCore(3)
	if err := checkInvariants(c); err == nil {
		t.Fatal("invariants must fail before enabling")
	}
	if err := DefaultHierarchy().Enable(c); err != nil {
		t.Fatal(err)
	}
	if !c.SVtEnabled() {
		t.Fatal("core must be in SVt mode")
	}
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestEnableRejectsBadHierarchy(t *testing.T) {
	c := newCore(2)
	if err := DefaultHierarchy().Enable(c); err == nil {
		t.Fatal("enable must validate")
	}
	if c.SVtEnabled() {
		t.Fatal("failed enable must not flip the mode")
	}
}

// End-to-end: with the hierarchy configured, the visor reaches both
// subordinate contexts' registers via ctxtld/ctxtst with the virtualized
// level argument (§4's "Configuring L1 and Cross-Context Register
// Access" walk-through).
func TestCrossContextAccessThroughHierarchy(t *testing.T) {
	c := newCore(3)
	h := DefaultHierarchy()
	if err := h.Enable(c); err != nil {
		t.Fatal(err)
	}
	v01 := vmcs.New("vmcs01")
	v01.VMLevel = 1
	h.ConfigureVisorVMCS(v01)
	c.VMPtrLoad(0, v01)

	c.RegFile().Write(1, isa.RDX, 0x11)
	c.RegFile().Write(2, isa.RDX, 0x22)
	got, exit := c.CtxtAccess(1, isa.RDX, false, 0)
	if exit.Reason != isa.ExitNone || got != 0x11 {
		t.Fatalf("lvl1 read = %#x / %v", got, exit)
	}
	got, exit = c.CtxtAccess(2, isa.RDX, false, 0)
	if exit.Reason != isa.ExitNone || got != 0x22 {
		t.Fatalf("lvl2 read = %#x / %v", got, exit)
	}
	if _, exit = c.CtxtAccess(1, isa.RDX, true, 0x99); exit.Reason != isa.ExitNone {
		t.Fatalf("lvl1 write trapped: %v", exit)
	}
	if c.ReadGPR(1, isa.RDX) != 0x99 {
		t.Fatal("ctxtst did not land in the guest context")
	}
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants verifies the §3.4 design promise on a live core: the
// register file's rename maps are consistent, so cross-context accesses
// are well-defined.
func checkInvariants(c *cpu.Core) error {
	if !c.SVtEnabled() {
		return fmt.Errorf("core: SVt not enabled")
	}
	return c.RegFile().CheckInvariants()
}
