package isa

import "fmt"

// Op is an instruction opcode. Only the instructions the simulated
// guests issue are modelled; untrapped guest work is charged as time by
// the guest itself, never executed. The zero Op is invalid.
type Op uint8

const (
	// OpCPUID unconditionally exits to the hypervisor (architecturally
	// required to be emulated).
	OpCPUID Op = iota + 1
	// OpRDMSR / OpWRMSR access the MSR in MSRAddr; exiting depends on the
	// MSR bitmap of the controlling VMCS.
	OpRDMSR
	OpWRMSR
	// OpMMIOWrite stores Val to guest-physical address Addr. It exits
	// with EPT_MISCONFIG when Addr falls in a device region; guests
	// drive their devices by writes only.
	OpMMIOWrite
	// OpHLT idles the vCPU until the next interrupt.
	OpHLT
	// OpVMCall is a hypercall.
	OpVMCall
	// VMX operations, executed by guest hypervisors; all trap when executed
	// in non-root mode (except hardware-shadowed VMREAD/VMWRITE).
	OpVMPtrLd
	OpVMRead
	OpVMWrite
	OpVMResume
	OpINVEPT
	// OpMonitor arms the SW SVt prototype's wait loop; the wait itself
	// is the channel's park, not an instruction.
	OpMonitor
	// SVt cross-context register access instructions (the paper's ISA
	// extension, Table 2). Lvl selects the target context indirectly.
	OpCtxtLd
	OpCtxtSt
)

var opNames = [...]string{
	"", "cpuid", "rdmsr", "wrmsr", "mmio-write", "hlt", "vmcall", "vmptrld",
	"vmread", "vmwrite", "vmresume", "invept", "monitor", "ctxtld", "ctxtst",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one architectural action taken by a guest.
type Instr struct {
	Op      Op
	Reg     Reg    // register operand (ctxtld/ctxtst target, etc.)
	MSRAddr uint32 // OpRDMSR/OpWRMSR
	Addr    uint64 // guest-physical address (MMIO) or VMCS field/pointer
	Val     uint64 // source value for writes
	Lvl     int    // OpCtxtLd/OpCtxtSt virtualization-level argument
	Leaf    uint32 // OpCPUID leaf
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
