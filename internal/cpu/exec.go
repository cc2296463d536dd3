package cpu

import (
	"fmt"

	"svtsim/internal/isa"
	"svtsim/internal/vmcs"
)

// ExecResult is the outcome of executing one instruction in guest mode:
// either a value (for reads) or a VM exit to be delivered.
type ExecResult struct {
	Value uint64
	Exit  isa.Exit // zero when the instruction did not exit
}

// Exited reports whether the instruction raised a VM exit.
func (r ExecResult) Exited() bool { return r.Exit.Reason != isa.ExitNone }

// instruction lengths for RIP advancing after emulation.
func instrLen(op isa.Op) uint64 {
	switch op {
	case isa.OpHLT:
		return 1
	case isa.OpMMIOWrite, isa.OpVMPtrLd, isa.OpVMRead, isa.OpVMWrite, isa.OpVMResume, isa.OpVMCall:
		return 3
	}
	return 2 // CPUID, RDMSR, WRMSR
}

// Exec executes one instruction for context ctx running in guest mode
// under VMCS v, charging its cost and applying its architectural
// semantics. It returns the value produced (for reads) or the VM exit the
// instruction raises.
func (c *Core) Exec(ctx ContextID, v *vmcs.VMCS, in isa.Instr) ExecResult {
	c.Stats.Instructions++
	eng := c.Eng
	m := c.Costs
	switch in.Op {
	case isa.OpCPUID:
		eng.Advance(m.InstrCPUID)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitCPUID, Qualification: uint64(in.Leaf), InstrLen: instrLen(in.Op)}}

	case isa.OpRDMSR, isa.OpWRMSR:
		eng.Advance(m.InstrMSR)
		if !v.MSRExits(in.MSRAddr) {
			// The model keeps no MSR state outside the hypervisors'
			// emulation: every MSR a guest touches must trap.
			panic(fmt.Sprintf("cpu: context %d: %v of MSR %#x not trapped by the MSR bitmap of VMCS %s",
				ctx, in.Op, in.MSRAddr, v.Name))
		}
		reason := isa.ExitMSRRead
		if in.Op == isa.OpWRMSR {
			reason = isa.ExitMSRWrite
			if in.MSRAddr >= 0x800 && in.MSRAddr <= 0x8FF {
				reason = isa.ExitAPICWrite // virtualize-x2APIC bucket
			}
		}
		return ExecResult{Exit: isa.Exit{
			Reason:        reason,
			Qualification: uint64(in.MSRAddr),
			Value:         in.Val,
			InstrLen:      instrLen(in.Op),
		}}

	case isa.OpMMIOWrite:
		// Guests touch memory-mapped devices only; any access outside a
		// device window is an EPT violation, which L0 treats as fatal.
		eng.Advance(m.InstrMMIO)
		if tbl := c.eptTables[v.Read(vmcs.EPTPointer)]; tbl != nil {
			if dev, ok := tbl.DeviceAt(in.Addr); ok {
				return ExecResult{Exit: isa.Exit{
					Reason:        isa.ExitEPTMisconfig,
					GuestPA:       in.Addr,
					Qualification: dev,
					Value:         in.Val,
					InstrLen:      instrLen(in.Op),
				}}
			}
		}
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitEPTViolation, GuestPA: in.Addr, InstrLen: instrLen(in.Op)}}

	case isa.OpHLT:
		// Every VMCS the hypervisors build sets HLT exiting.
		eng.Advance(m.InstrBase)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitHLT, InstrLen: instrLen(in.Op)}}

	case isa.OpVMCall:
		eng.Advance(m.InstrBase)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitVMCall, Qualification: in.Val, InstrLen: instrLen(in.Op)}}

	case isa.OpVMPtrLd:
		eng.Advance(m.InstrBase)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitVMPtrLd, Qualification: in.Addr, InstrLen: instrLen(in.Op)}}

	case isa.OpVMResume:
		eng.Advance(m.InstrBase)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitVMResume, InstrLen: instrLen(in.Op)}}

	case isa.OpVMRead:
		f := vmcs.Field(in.Addr)
		if v.ShadowedAccess(f) {
			// Hardware VMCS shadowing absorbs the access (§2.1).
			eng.Advance(m.VMRead)
			return ExecResult{Value: v.Shadow.Read(f)}
		}
		eng.Advance(m.InstrBase)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitVMRead, Qualification: in.Addr, InstrLen: instrLen(in.Op)}}

	case isa.OpVMWrite:
		f := vmcs.Field(in.Addr)
		if v.ShadowedAccess(f) {
			eng.Advance(m.VMWrite)
			v.Shadow.Write(f, in.Val)
			return ExecResult{}
		}
		eng.Advance(m.InstrBase)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitVMWrite, Qualification: in.Addr, Value: in.Val, InstrLen: instrLen(in.Op)}}

	case isa.OpMonitor:
		// The SW SVt prototype configures mwait passthrough (§5.2); the
		// waiting semantics are modelled by the swsvt channel, so here the
		// instruction is an architectural no-op.
		eng.Advance(m.InstrBase)
		return ExecResult{}

	case isa.OpCtxtLd:
		val, exit := c.CtxtAccess(in.Lvl, in.Reg, false, 0)
		return ExecResult{Value: val, Exit: exit}

	case isa.OpCtxtSt:
		_, exit := c.CtxtAccess(in.Lvl, in.Reg, true, in.Val)
		return ExecResult{Exit: exit}

	default:
		panic(fmt.Sprintf("cpu: unknown op %v", in.Op))
	}
}
