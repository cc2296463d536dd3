package isa

import "fmt"

// ExitReason identifies why a VM exit was delivered, mirroring the Intel
// basic exit reasons the paper's profiles name (EPT_MISCONFIG, MSR_WRITE,
// EXTERNAL_INTERRUPT, ...).
type ExitReason uint16

const (
	ExitNone ExitReason = iota
	ExitExternalInterrupt
	ExitCPUID
	ExitHLT
	ExitVMCall
	ExitVMPtrLd
	ExitVMRead
	ExitVMWrite
	ExitVMLaunch
	ExitVMResume
	ExitINVEPT
	ExitMSRRead
	ExitMSRWrite
	ExitIOInstruction
	ExitEPTViolation
	ExitEPTMisconfig
	ExitCRAccess
	ExitPause
	ExitPreemptionTimer
	// ExitAPICWrite is a virtualized x2APIC register write (EOI, ICR)
	// under "virtualize x2APIC mode" — distinct from plain MSR_WRITE.
	ExitAPICWrite
	// ExitSVTBlocked is the synthetic exit the SW SVt prototype injects
	// into L1 to break the interrupt deadlock described in §5.3.
	ExitSVTBlocked
	NumExitReasons
)

var exitNames = [...]string{
	"NONE", "EXTERNAL_INTERRUPT", "CPUID", "HLT", "VMCALL",
	"VMPTRLD", "VMREAD", "VMWRITE", "VMLAUNCH", "VMRESUME", "INVEPT",
	"MSR_READ", "MSR_WRITE", "IO_INSTRUCTION", "EPT_VIOLATION",
	"EPT_MISCONFIG", "CR_ACCESS", "PAUSE", "PREEMPTION_TIMER", "APIC_WRITE", "SVT_BLOCKED",
}

func (r ExitReason) String() string {
	if int(r) < len(exitNames) {
		return exitNames[r]
	}
	return fmt.Sprintf("EXIT(%d)", uint16(r))
}

// Exit is the VM-exit information record a hypervisor receives. In
// hardware most of these live in VMCS exit-information fields; carrying
// them in one struct models the "minimal bootstrap state" the paper
// describes, while field-level accesses (and their traps at L1) are still
// performed through VMREAD/VMWRITE.
//
// Exits travel by value along the exit path, so delivering one
// allocates nothing. The zero Exit (reason ExitNone) stands for "no
// exit".
type Exit struct {
	Reason        ExitReason
	Qualification uint64 // reason-specific (MSR address, port, CR number…)
	GuestPA       uint64 // faulting guest-physical address for EPT exits
	Vector        int    // interrupt vector for ExitExternalInterrupt
	InstrLen      uint64 // length of the exiting instruction (for RIP advance)
	Value         uint64 // write payload (WRMSR/MMIO write emulation)
}

func (e *Exit) String() string {
	if e == nil {
		return "<nil exit>"
	}
	return fmt.Sprintf("%s(qual=%#x gpa=%#x vec=%d)", e.Reason, e.Qualification, e.GuestPA, e.Vector)
}
