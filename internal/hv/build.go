package hv

import (
	"svtsim/internal/cpu"
	"svtsim/internal/isa"
	"svtsim/internal/vmcs"
)

// This file is the VMCS construction surface the machine layer uses.
// Since the ports redesign, packages above hv (machine, host, check,
// exp) never name vmcs types directly — they assemble the stack through
// these helpers, and the CI import gate holds them to it.

// HostEntryRIP is the canonical host-side entry point recorded in every
// host-state area.
const HostEntryRIP uint64 = 0xFFFF_8000_0000_0000

// NewVisorVMCS builds the host-side VMCS for one L1 vCPU: external-
// interrupt exiting, HLT exiting with an MSR bitmap trapping the timer
// deadline, the given EPT pointer, and — in the HW SVt modes — the SVt
// µ-register configuration.
func NewVisorVMCS(name string, eptp uint64, mode Mode) *vmcs.VMCS {
	v := vmcs.New(name)
	v.VMLevel = 1
	v.Write(vmcs.PinControls, vmcs.PinCtlExtIntExit)
	v.Write(vmcs.ProcControls, vmcs.ProcCtlHLTExit|vmcs.ProcCtlUseMSRBitmap)
	v.Write(vmcs.EPTPointer, eptp)
	v.SetMSRExit(isa.MSRTSCDeadline)
	v.Write(vmcs.HostRIP, HostEntryRIP)
	if mode.HWSVt() {
		// Where the visor runs, where the guest runs, and which context
		// the guest's cross-context accesses are virtualized onto once it
		// hosts a nested VM (§4 step A).
		v.Write(vmcs.SVtVisor, uint64(cpu.VisorContext))
		v.Write(vmcs.SVtVM, uint64(cpu.GuestContext))
		v.Write(vmcs.SVtNested, uint64(cpu.NestedContext))
	}
	return v
}

// NewNestedVMCSPair builds vmcs12 (the guest hypervisor's VMCS for its
// nested VM) and vmcs02 (the merged shadow L0 actually runs).
func NewNestedVMCSPair(mode Mode) (v12, v02 *vmcs.VMCS) {
	v12 = vmcs.New("vmcs12")
	v12.VMLevel = 2
	v02 = vmcs.New("vmcs02")
	v02.VMLevel = 2
	v02.Write(vmcs.HostRIP, HostEntryRIP)
	if mode.HWSVt() {
		// Exits from the nested context resume the visor directly, with
		// no software context switch in between.
		v02.Write(vmcs.SVtVisor, uint64(cpu.VisorContext))
		v02.Write(vmcs.SVtVM, uint64(cpu.NestedContext))
		v02.Write(vmcs.SVtNested, vmcs.InvalidContext)
	}
	return v12, v02
}

// NewNestedState wires the nested-virtualization state: the vmcs12/
// vmcs02 pair, the guest-physical address L1 believes vmcs12 lives at,
// L2's vCPU, and the L1-physical pointer translation used by the
// vmcs12→vmcs02 transform.
func NewNestedState(v12, v02 *vmcs.VMCS, v12addr uint64, l2 *VCPU,
	xlat func(gpa uint64) (uint64, error)) *NestedState {
	return &NestedState{
		Vmcs12:     v12,
		Vmcs12Addr: v12addr,
		Vmcs02:     v02,
		L2VCPU:     l2,
		Xlat: func(_ vmcs.Field, gpa uint64) (uint64, error) {
			return xlat(gpa)
		},
	}
}

// forcedControls are the controls L0 always keeps set on every vmcs02
// regardless of what L1 asks for: external-interrupt exiting and the
// trapped timer-deadline MSR.
var forcedControls = vmcs.ForcedControls{
	Pin:      vmcs.PinCtlExtIntExit,
	ForceMSR: []uint32{isa.MSRTSCDeadline},
}

// SetShadowEPTP installs the composed shadow EPT pointer into vmcs02
// (the machine calls this from its OnEPTP hook once the composition is
// registered with the core).
func (ns *NestedState) SetShadowEPTP(eptp uint64) {
	ns.Vmcs02.Write(vmcs.EPTPointer, eptp)
}

// BootNestedVM performs the guest hypervisor's boot-time configuration
// of its nested VM through the genuinely trapping platform operations:
// VMPTRLD, the control/pointer writes, and the nested guest's entry
// point. The MSR-bitmap page is the guest hypervisor's own memory, so
// the deadline/EOI/ICR trap bits are written without traps.
func BootNestedVM(plat *VirtualPlatform, vc *VCPU, msrBitmapGPA, eptp12, entryRIP uint64) {
	v12 := vc.VMCS
	plat.Load(vc)
	plat.VMWrite(v12, vmcs.PinControls, vmcs.PinCtlExtIntExit)
	plat.VMWrite(v12, vmcs.ProcControls, vmcs.ProcCtlHLTExit|vmcs.ProcCtlUseMSRBitmap)
	v12.SetMSRExit(isa.MSRTSCDeadline)
	v12.SetMSRExit(isa.MSRX2APICEOI)
	v12.SetMSRExit(isa.MSRX2APICICR)
	plat.VMWrite(v12, vmcs.MSRBitmapAddr, msrBitmapGPA)
	plat.VMWrite(v12, vmcs.EPTPointer, eptp12)
	plat.VMWrite(v12, vmcs.GuestRIP, entryRIP)
}
