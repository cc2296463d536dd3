// Package vmcs models the VM state descriptor (VMCS on Intel): the
// per-vCPU structure hypervisors use to bootstrap VM entry/exit state.
// It implements the storage, field classification, hardware shadowing,
// and the vmcs12↔vmcs02 transformations at the heart of nested
// virtualization (§2.1–§2.2 of the paper), plus the three new SVt fields
// (Table 2): SVt_visor, SVt_vm and SVt_nested.
package vmcs

import "fmt"

// Field identifies one VMCS field.
type Field uint32

// VMCS fields. The set is the trap-relevant subset of the Intel layout.
const (
	// Guest-state area.
	GuestRIP Field = iota
	GuestRSP
	GuestRFLAGS
	GuestCR0
	GuestCR3
	GuestCR4
	GuestEFER
	GuestIntrState
	GuestActivityState
	GuestSysenterESP
	GuestSysenterEIP
	GuestFSBase
	GuestGSBase
	GuestTRBase
	GuestGDTRBase
	GuestIDTRBase

	// Host-state area.
	HostRIP
	HostRSP
	HostCR3
	HostFSBase
	HostGSBase

	// Exit-information (read-only to the guest hypervisor in hardware).
	ExitReasonF
	ExitQualification
	ExitInstrLen
	GuestPhysAddr
	ExitIntrInfo
	ExitIntrErrCode
	ExitValueAux // model: the operand value of the exiting instruction (saved RAX)

	// Entry controls & event injection.
	EntryIntrInfo
	EntryInstrLen

	// Execution controls.
	PinControls
	ProcControls
	Proc2Controls
	ExceptionBitmap
	VMEntryCtls
	VMExitCtls
	TSCOffset
	PreemptTimerValue

	// Guest-physical pointer fields (must be translated when L0 builds
	// vmcs02 from vmcs12).
	EPTPointer
	MSRBitmapAddr
	IOBitmapAAddr
	IOBitmapBAddr
	VirtualAPICPage
	APICAccessAddr
	VMCSLinkPtr
	PostedIntrDesc

	// The paper's SVt fields (Table 2).
	SVtVisor
	SVtVM
	SVtNested

	NumFields
)

// Class partitions fields by their role, which determines how transforms
// and shadowing treat them.
type Class uint8

// Field classes.
const (
	ClassGuest Class = iota
	ClassHost
	ClassExitInfo
	ClassEntry
	ClassControl
	ClassPointer
	ClassSVt
)

type fieldInfo struct {
	name  string
	class Class
	// shadowable marks fields Intel's hardware VMCS shadowing can cover:
	// plain guest state and exit information, i.e. fields that "do not
	// require complicated handling" (§2.2). Pointer fields and execution
	// controls always trap at L1.
	shadowable bool
}

var fieldTable = [NumFields]fieldInfo{
	GuestRIP:           {"GUEST_RIP", ClassGuest, true},
	GuestRSP:           {"GUEST_RSP", ClassGuest, true},
	GuestRFLAGS:        {"GUEST_RFLAGS", ClassGuest, true},
	GuestCR0:           {"GUEST_CR0", ClassGuest, false}, // CR handling has L0/L1 conflicting goals
	GuestCR3:           {"GUEST_CR3", ClassGuest, false},
	GuestCR4:           {"GUEST_CR4", ClassGuest, false},
	GuestEFER:          {"GUEST_EFER", ClassGuest, true},
	GuestIntrState:     {"GUEST_INTERRUPTIBILITY", ClassGuest, true},
	GuestActivityState: {"GUEST_ACTIVITY_STATE", ClassGuest, true},
	GuestSysenterESP:   {"GUEST_SYSENTER_ESP", ClassGuest, true},
	GuestSysenterEIP:   {"GUEST_SYSENTER_EIP", ClassGuest, true},
	GuestFSBase:        {"GUEST_FS_BASE", ClassGuest, true},
	GuestGSBase:        {"GUEST_GS_BASE", ClassGuest, true},
	GuestTRBase:        {"GUEST_TR_BASE", ClassGuest, true},
	GuestGDTRBase:      {"GUEST_GDTR_BASE", ClassGuest, true},
	GuestIDTRBase:      {"GUEST_IDTR_BASE", ClassGuest, true},

	HostRIP:    {"HOST_RIP", ClassHost, false},
	HostRSP:    {"HOST_RSP", ClassHost, false},
	HostCR3:    {"HOST_CR3", ClassHost, false},
	HostFSBase: {"HOST_FS_BASE", ClassHost, false},
	HostGSBase: {"HOST_GS_BASE", ClassHost, false},

	ExitReasonF:       {"EXIT_REASON", ClassExitInfo, true},
	ExitQualification: {"EXIT_QUALIFICATION", ClassExitInfo, true},
	ExitInstrLen:      {"EXIT_INSTRUCTION_LEN", ClassExitInfo, true},
	GuestPhysAddr:     {"GUEST_PHYSICAL_ADDRESS", ClassExitInfo, true},
	ExitIntrInfo:      {"EXIT_INTR_INFO", ClassExitInfo, true},
	ExitIntrErrCode:   {"EXIT_INTR_ERROR_CODE", ClassExitInfo, true},
	ExitValueAux:      {"EXIT_VALUE_AUX", ClassExitInfo, true},

	EntryIntrInfo: {"ENTRY_INTR_INFO", ClassEntry, false},
	EntryInstrLen: {"ENTRY_INSTRUCTION_LEN", ClassEntry, false},

	PinControls:       {"PIN_CONTROLS", ClassControl, false},
	ProcControls:      {"PROC_CONTROLS", ClassControl, false},
	Proc2Controls:     {"PROC2_CONTROLS", ClassControl, false},
	ExceptionBitmap:   {"EXCEPTION_BITMAP", ClassControl, false},
	VMEntryCtls:       {"VMENTRY_CONTROLS", ClassControl, false},
	VMExitCtls:        {"VMEXIT_CONTROLS", ClassControl, false},
	TSCOffset:         {"TSC_OFFSET", ClassControl, false},
	PreemptTimerValue: {"PREEMPT_TIMER_VALUE", ClassControl, false},

	EPTPointer:      {"EPT_POINTER", ClassPointer, false},
	MSRBitmapAddr:   {"MSR_BITMAP", ClassPointer, false},
	IOBitmapAAddr:   {"IO_BITMAP_A", ClassPointer, false},
	IOBitmapBAddr:   {"IO_BITMAP_B", ClassPointer, false},
	VirtualAPICPage: {"VIRTUAL_APIC_PAGE", ClassPointer, false},
	APICAccessAddr:  {"APIC_ACCESS_ADDR", ClassPointer, false},
	VMCSLinkPtr:     {"VMCS_LINK_POINTER", ClassPointer, false},
	PostedIntrDesc:  {"POSTED_INTR_DESC", ClassPointer, false},

	SVtVisor:  {"SVT_VISOR", ClassSVt, false},
	SVtVM:     {"SVT_VM", ClassSVt, false},
	SVtNested: {"SVT_NESTED", ClassSVt, false},
}

func (f Field) String() string {
	if f < NumFields {
		return fieldTable[f].name
	}
	return fmt.Sprintf("FIELD(%d)", uint32(f))
}

// Shadowable reports whether hardware VMCS shadowing can cover f.
func (f Field) Shadowable() bool {
	if f < NumFields {
		return fieldTable[f].shadowable
	}
	return false
}

// classFields lists each class's fields in ascending order, built once
// so the per-exit transforms allocate nothing.
var classFields = func() (t [ClassSVt + 1][]Field) {
	for f := Field(0); f < NumFields; f++ {
		c := fieldTable[f].class
		t[c] = append(t[c], f)
	}
	return t
}()

// FieldsOfClass returns, in ascending order, all fields of class c. The
// slice is shared: callers must not modify it.
func FieldsOfClass(c Class) []Field {
	if int(c) >= len(classFields) {
		return nil
	}
	return classFields[c]
}

// Execution-control bits used by the model.
const (
	ProcCtlHLTExit      uint64 = 1 << 7
	ProcCtlMwaitExit    uint64 = 1 << 10
	ProcCtlMonitorTrap  uint64 = 1 << 27
	ProcCtlUseMSRBitmap uint64 = 1 << 28
	ProcCtlPauseExit    uint64 = 1 << 30

	Proc2CtlEnableEPT     uint64 = 1 << 1
	Proc2CtlVMCSShadowing uint64 = 1 << 14
	Proc2CtlAPICRegVirt   uint64 = 1 << 8
	Proc2CtlEnableSVt     uint64 = 1 << 30 // model-specific: SVt enabled

	PinCtlExtIntExit   uint64 = 1 << 0
	PinCtlPreemptTimer uint64 = 1 << 6
)

// InvalidContext is the value of an SVt field that names no context
// (§4: "sets the SVt_nested field to an invalid value").
const InvalidContext uint64 = ^uint64(0)
