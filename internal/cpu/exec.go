package cpu

import (
	"encoding/binary"
	"fmt"

	"svtsim/internal/ept"
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
	case isa.OpCPUID:
		return 2
	case isa.OpRDMSR, isa.OpWRMSR:
		return 2
	case isa.OpHLT:
		return 1
	case isa.OpMMIORead, isa.OpMMIOWrite:
		return 3
	case isa.OpVMPtrLd, isa.OpVMRead, isa.OpVMWrite, isa.OpVMLaunch, isa.OpVMResume, isa.OpINVEPT, isa.OpVMCall:
		return 3
	default:
		return 2
	}
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
	case isa.OpNop:
		eng.Advance(m.InstrBase)
		return ExecResult{}

	case isa.OpCompute:
		eng.Advance(in.Dur)
		return ExecResult{}

	case isa.OpCPUID:
		eng.Advance(m.InstrCPUID)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitCPUID, Qualification: uint64(in.Leaf), InstrLen: instrLen(in.Op)}}

	case isa.OpRDMSR, isa.OpWRMSR:
		eng.Advance(m.InstrMSR)
		if v.MSRExits(in.MSRAddr) {
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
		}
		if in.Op == isa.OpWRMSR {
			c.WriteMSR(ctx, in.MSRAddr, in.Val)
			return ExecResult{}
		}
		return ExecResult{Value: c.ReadMSR(ctx, in.MSRAddr)}

	case isa.OpMMIORead, isa.OpMMIOWrite:
		eng.Advance(m.InstrMMIO)
		eptp := v.Read(vmcs.EPTPointer)
		tbl := c.eptTables[eptp]
		if tbl == nil {
			return ExecResult{Exit: isa.Exit{Reason: isa.ExitEPTViolation, GuestPA: in.Addr, InstrLen: instrLen(in.Op)}}
		}
		if dev, ok := tbl.DeviceAt(in.Addr); ok {
			return ExecResult{Exit: isa.Exit{
				Reason:        isa.ExitEPTMisconfig,
				GuestPA:       in.Addr,
				Qualification: dev,
				Value:         in.Val,
				InstrLen:      instrLen(in.Op),
			}}
		}
		need := ept.PermR
		if in.Op == isa.OpMMIOWrite {
			need = ept.PermW
		}
		hpa, err := tbl.Translate(in.Addr, need)
		if err != nil {
			return ExecResult{Exit: isa.Exit{Reason: isa.ExitEPTViolation, GuestPA: in.Addr, InstrLen: instrLen(in.Op)}}
		}
		var b [8]byte
		if in.Op == isa.OpMMIOWrite {
			binary.LittleEndian.PutUint64(b[:], in.Val)
			if err := c.hostMem.Write(hpa, b[:]); err != nil {
				panic(fmt.Sprintf("cpu: mapped MMIO write failed: %v", err))
			}
			return ExecResult{}
		}
		if err := c.hostMem.Read(hpa, b[:]); err != nil {
			panic(fmt.Sprintf("cpu: mapped MMIO read failed: %v", err))
		}
		return ExecResult{Value: binary.LittleEndian.Uint64(b[:])}

	case isa.OpHLT:
		eng.Advance(m.InstrBase)
		if v.Read(vmcs.ProcControls)&vmcs.ProcCtlHLTExit != 0 {
			return ExecResult{Exit: isa.Exit{Reason: isa.ExitHLT, InstrLen: instrLen(in.Op)}}
		}
		return ExecResult{}

	case isa.OpPause:
		eng.Advance(m.InstrBase)
		if v.Read(vmcs.ProcControls)&vmcs.ProcCtlPauseExit != 0 {
			return ExecResult{Exit: isa.Exit{Reason: isa.ExitPause, InstrLen: instrLen(in.Op)}}
		}
		return ExecResult{}

	case isa.OpVMCall:
		eng.Advance(m.InstrBase)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitVMCall, Qualification: in.Val, InstrLen: instrLen(in.Op)}}

	case isa.OpVMPtrLd:
		eng.Advance(m.InstrBase)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitVMPtrLd, Qualification: in.Addr, InstrLen: instrLen(in.Op)}}

	case isa.OpVMLaunch, isa.OpVMResume:
		eng.Advance(m.InstrBase)
		r := isa.ExitVMResume
		if in.Op == isa.OpVMLaunch {
			r = isa.ExitVMLaunch
		}
		return ExecResult{Exit: isa.Exit{Reason: r, InstrLen: instrLen(in.Op)}}

	case isa.OpINVEPT:
		eng.Advance(m.InstrBase)
		return ExecResult{Exit: isa.Exit{Reason: isa.ExitINVEPT, Qualification: in.Addr, InstrLen: instrLen(in.Op)}}

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

	case isa.OpMonitor, isa.OpMwait:
		// The SW SVt prototype configures mwait passthrough (§5.2); the
		// waiting semantics are modelled by the swsvt channel, so here the
		// instructions are architectural no-ops.
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
