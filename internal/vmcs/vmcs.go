package vmcs

import (
	"fmt"

	"svtsim/internal/isa"
)

// VMCS is one VM state descriptor. Following the paper's naming
// convention, instances are named after the hypervisor level managing
// them and the VM level they represent (vmcs01, vmcs12, vmcs02, and L1's
// own vmcs01′).
//
// A VMCS does not hold a VM's entire context (§2.1): general-purpose
// registers, for instance, are context-switched in software. The GPRs
// array models the vCPU-adjacent memory KVM keeps them in; under SVt the
// registers instead stay resident in the SMT context's physical register
// file and are reached with ctxtld/ctxtst.
type VMCS struct {
	Name string
	// VMLevel is the virtualization level of the VM this descriptor
	// represents (1 for vmcs01, 2 for vmcs02/vmcs12). Switching the loaded
	// VMCS between levels costs extra software state swapping in the
	// baseline design (§2.3: L0↔L1 switches are more expensive).
	VMLevel int

	fields [NumFields]uint64
	// GPRs is the software-managed register save area next to the VMCS.
	GPRs [isa.NumGPR]uint64

	// ShadowEnabled marks hardware VMCS shadowing active for this VMCS
	// (Proc2CtlVMCSShadowing): VMREAD/VMWRITE of shadowable fields by the
	// guest hypervisor do not trap but hit the linked shadow VMCS.
	ShadowEnabled bool
	// Shadow links the VMCS whose shadowable fields the hardware reads and
	// writes on non-trapping accesses (L0 links vmcs12 under vmcs01).
	Shadow *VMCS

	// ExitingMSRs models the MSR bitmap contents: the MSR addresses whose
	// access traps. The MSRBitmapAddr field still carries a (translated)
	// pointer value so transforms exercise pointer translation; the
	// semantic content lives here for directness.
	ExitingMSRs map[uint32]bool

	dirty [(NumFields + 63) / 64]uint64 // one bit per field
}

// New returns an empty VMCS with the given diagnostic name.
func New(name string) *VMCS {
	v := &VMCS{Name: name, ExitingMSRs: make(map[uint32]bool)}
	v.fields[SVtVisor] = InvalidContext
	v.fields[SVtVM] = InvalidContext
	v.fields[SVtNested] = InvalidContext
	v.fields[VMCSLinkPtr] = ^uint64(0)
	return v
}

// Read returns the value of field f.
func (v *VMCS) Read(f Field) uint64 {
	if f >= NumFields {
		panic(fmt.Sprintf("vmcs %s: read of unknown field %d", v.Name, f))
	}
	return v.fields[f]
}

// Write sets field f to val and marks it dirty.
func (v *VMCS) Write(f Field, val uint64) {
	if f >= NumFields {
		panic(fmt.Sprintf("vmcs %s: write of unknown field %d", v.Name, f))
	}
	v.fields[f] = val
	v.dirty[f/64] |= 1 << (f % 64)
}

// Dirty reports whether f has been written since the last ClearDirty.
func (v *VMCS) Dirty(f Field) bool { return f < NumFields && v.dirty[f/64]&(1<<(f%64)) != 0 }

// ClearDirty resets dirtiness tracking (after a transform consumed it).
func (v *VMCS) ClearDirty() { clear(v.dirty[:]) }

// MSRExits reports whether accessing MSR addr traps under this VMCS.
func (v *VMCS) MSRExits(addr uint32) bool {
	if v.Read(ProcControls)&ProcCtlUseMSRBitmap == 0 {
		return true // without a bitmap, all MSR accesses exit
	}
	return v.ExitingMSRs[addr]
}

// SetMSRExit makes MSR addr trap.
func (v *VMCS) SetMSRExit(addr uint32) { v.ExitingMSRs[addr] = true }

// ShadowedAccess reports whether a VMREAD/VMWRITE of f performed by the
// guest hypervisor running under this VMCS is absorbed by hardware
// shadowing (no trap).
func (v *VMCS) ShadowedAccess(f Field) bool {
	return v.ShadowEnabled && v.Shadow != nil && f.Shadowable()
}

// RecordExit fills the exit-information fields from e. The hardware does
// this during a VM exit.
func (v *VMCS) RecordExit(e isa.Exit) {
	v.Write(ExitReasonF, uint64(e.Reason))
	v.Write(ExitQualification, e.Qualification)
	v.Write(ExitInstrLen, e.InstrLen)
	v.Write(GuestPhysAddr, e.GuestPA)
	v.Write(ExitIntrInfo, uint64(uint32(e.Vector)))
	v.Write(ExitValueAux, e.Value)
}

func (v *VMCS) String() string { return fmt.Sprintf("VMCS(%s)", v.Name) }
