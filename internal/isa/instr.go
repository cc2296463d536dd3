package isa

import (
	"fmt"

	"svtsim/internal/sim"
)

// Op is an instruction opcode. Only the trap-relevant subset of the
// architecture is modelled; everything else a guest does is folded into
// OpCompute blocks with an explicit duration.
type Op uint8

const (
	OpNop Op = iota
	// OpCompute represents a block of untrapped guest work lasting Dur.
	OpCompute
	// OpCPUID unconditionally exits to the hypervisor (architecturally
	// required to be emulated).
	OpCPUID
	// OpRDMSR / OpWRMSR access the MSR in MSRAddr; exiting depends on the
	// MSR bitmap of the controlling VMCS.
	OpRDMSR
	OpWRMSR
	// OpMMIORead / OpMMIOWrite access guest-physical address Addr.
	// They exit with EPT_MISCONFIG when Addr falls in a device region.
	OpMMIORead
	OpMMIOWrite
	// OpIn / OpOut are port I/O (exit when the I/O bitmap says so).
	OpIn
	OpOut
	// OpHLT idles the vCPU until the next interrupt.
	OpHLT
	// OpPause is the spin-wait hint (can exit under PAUSE-loop exiting).
	OpPause
	// OpVMCall is a hypercall.
	OpVMCall
	// VMX operations, executed by guest hypervisors; all trap when executed
	// in non-root mode (except hardware-shadowed VMREAD/VMWRITE).
	OpVMPtrLd
	OpVMRead
	OpVMWrite
	OpVMLaunch
	OpVMResume
	OpINVEPT
	// Monitor/mwait pair used by the SW SVt prototype's wait loops.
	OpMonitor
	OpMwait
	// SVt cross-context register access instructions (the paper's ISA
	// extension, Table 2). Lvl selects the target context indirectly.
	OpCtxtLd
	OpCtxtSt
)

var opNames = [...]string{
	"nop", "compute", "cpuid", "rdmsr", "wrmsr", "mmio-read", "mmio-write",
	"in", "out", "hlt", "pause", "vmcall", "vmptrld", "vmread", "vmwrite",
	"vmlaunch", "vmresume", "invept", "monitor", "mwait", "ctxtld", "ctxtst",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one architectural action taken by a guest.
type Instr struct {
	Op      Op
	Dur     sim.Time // OpCompute: duration of the block
	Reg     Reg      // register operand (ctxtld/ctxtst target, etc.)
	MSRAddr uint32   // OpRDMSR/OpWRMSR
	Addr    uint64   // guest-physical address (MMIO) or port (In/Out)
	Val     uint64   // source value for writes
	Lvl     int      // OpCtxtLd/OpCtxtSt virtualization-level argument
	Leaf    uint32   // OpCPUID leaf
}

// CPUID returns a cpuid instruction for the given leaf.
func CPUID(leaf uint32) Instr { return Instr{Op: OpCPUID, Leaf: leaf} }

// WRMSR returns a wrmsr of val to the MSR at addr.
func WRMSR(addr uint32, val uint64) Instr { return Instr{Op: OpWRMSR, MSRAddr: addr, Val: val} }

// RDMSR returns a rdmsr of the MSR at addr.
func RDMSR(addr uint32) Instr { return Instr{Op: OpRDMSR, MSRAddr: addr} }

// MMIOWrite returns a write of val to guest-physical address addr.
func MMIOWrite(addr, val uint64) Instr { return Instr{Op: OpMMIOWrite, Addr: addr, Val: val} }

// HLT returns the halt instruction.
func HLT() Instr { return Instr{Op: OpHLT} }
