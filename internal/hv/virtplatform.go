package hv

import (
	"svtsim/internal/cpu"
	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/vmcs"
)

// VirtualPlatform is what the L1 hypervisor runs on: every privileged
// operation is a real instruction executed through the guest port, so it
// either traps into L0 or — for VMCS-shadowed field accesses — completes
// in hardware. The additional VM exits a guest hypervisor suffers while
// handling its own guest's traps (§2.2) therefore fall out of this
// implementation rather than being modelled explicitly.
type VirtualPlatform struct {
	Port *cpu.Port
}

// NewVirtualPlatform wraps the native guest's port.
func NewVirtualPlatform(port *cpu.Port) *VirtualPlatform {
	return &VirtualPlatform{Port: port}
}

// Load makes vc's VMCS current on the virtual CPU (VMPTRLD, trapping to
// the host hypervisor, which activates shadowing on the first load).
func (p *VirtualPlatform) Load(vc *VCPU) {
	p.Port.Exec(isa.Instr{Op: isa.OpVMPtrLd, Addr: vc.VMCSAddr})
}

// Now implements Platform.
func (p *VirtualPlatform) Now() sim.Time { return p.Port.Now() }

// Charge implements Platform.
func (p *VirtualPlatform) Charge(d sim.Time) { p.Port.Charge(d) }

// Run implements Platform: VMRESUME, trapping to L0, then
// exit-information retrieval. L1 runs one nested VM, whose VMCS it loads
// at boot (Load), so no VMPTRLD precedes the resume. Shadowable exit
// fields are read without traps; the interrupt-window check on the
// execution controls is not shadowable and costs one genuine exit (the
// "L1 exits during VM-exit handling" of §2.3).
func (p *VirtualPlatform) Run(vc *VCPU) isa.Exit {
	p.Port.Exec(isa.Instr{Op: isa.OpVMResume})
	return p.ReadExitInfo()
}

// ReadExitInfo retrieves the exit information of the most recent nested
// VM exit from the loaded VMCS. The SW SVt SVt-thread uses it directly
// when a CMD_VM_TRAP arrives.
func (p *VirtualPlatform) ReadExitInfo() isa.Exit {
	read := func(f vmcs.Field) uint64 {
		return p.Port.Exec(isa.Instr{Op: isa.OpVMRead, Addr: uint64(f)})
	}
	e := isa.Exit{
		Reason:        isa.ExitReason(read(vmcs.ExitReasonF)),
		Qualification: read(vmcs.ExitQualification),
		InstrLen:      read(vmcs.ExitInstrLen),
	}
	switch e.Reason {
	case isa.ExitEPTMisconfig, isa.ExitEPTViolation:
		e.GuestPA = read(vmcs.GuestPhysAddr)
		e.Value = read(vmcs.ExitValueAux)
	case isa.ExitMSRWrite, isa.ExitVMWrite:
		e.Value = read(vmcs.ExitValueAux)
	case isa.ExitExternalInterrupt:
		e.Vector = int(uint32(read(vmcs.ExitIntrInfo)))
	}
	// Interrupt-window bookkeeping reads the execution controls, which are
	// never hardware-shadowed: one real trap into L0 per handled exit.
	_ = read(vmcs.ProcControls)
	return e
}

// VMRead implements Platform: a vmread instruction (shadowed or trapping).
func (p *VirtualPlatform) VMRead(v *vmcs.VMCS, f vmcs.Field) uint64 {
	return p.Port.Exec(isa.Instr{Op: isa.OpVMRead, Addr: uint64(f)})
}

// VMWrite implements Platform.
func (p *VirtualPlatform) VMWrite(v *vmcs.VMCS, f vmcs.Field, val uint64) {
	p.Port.Exec(isa.Instr{Op: isa.OpVMWrite, Addr: uint64(f), Val: val})
}

// ReadGuestGPR implements Platform. Under SVt this is a ctxtld of the
// nested context (the paper's fast path); otherwise it reads the register
// save area L0 reflected into vmcs12.
func (p *VirtualPlatform) ReadGuestGPR(vc *VCPU, r isa.Reg) uint64 {
	if p.Port.Core().SVtEnabled() {
		return p.Port.Exec(isa.Instr{Op: isa.OpCtxtLd, Reg: r, Lvl: vc.Lvl})
	}
	p.Port.Charge(p.Port.Core().Costs.InstrBase)
	return vc.VMCS.GPRs[r]
}

// WriteGuestGPR implements Platform.
func (p *VirtualPlatform) WriteGuestGPR(vc *VCPU, r isa.Reg, val uint64) {
	if p.Port.Core().SVtEnabled() {
		p.Port.Exec(isa.Instr{Op: isa.OpCtxtSt, Reg: r, Lvl: vc.Lvl, Val: val})
		return
	}
	p.Port.Charge(p.Port.Core().Costs.InstrBase)
	vc.VMCS.GPRs[r] = val
}

// SetTimer implements Platform: program this CPU's own deadline MSR,
// which traps to L0 (the MSR_WRITE exits the paper's profiles attribute
// to timer reprogramming).
func (p *VirtualPlatform) SetTimer(vc *VCPU, deadline sim.Time) {
	p.Port.Exec(isa.WRMSR(isa.MSRTSCDeadline, uint64(deadline)))
}

// Idle implements Platform: deliver anything pending, and if still idle
// execute HLT — which traps to L0, where the real idling happens.
func (p *VirtualPlatform) Idle(vc *VCPU) bool {
	p.Port.PollIRQs()
	if vc.VirtLAPIC != nil && vc.VirtLAPIC.HasPending() {
		return true
	}
	p.Port.ExecHLT()
	return true
}
