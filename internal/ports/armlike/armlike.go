// Package armlike is an ARM-flavored architecture backend: trap-to-EL2
// world switches (several times cheaper than a VT-x round trip, per
// "High-Performance ARM-on-ARM Virtualization"), memory-backed nested
// virtualization state in the NV2/VNCR style (untrapped sysreg accesses
// become loads/stores), and a vGIC-style interrupt controller whose
// pending delivery is bounded by hardware list registers. It exists to
// answer the ROADMAP question the paper leaves open: does dedicating an
// SMT sibling to exit handling still pay off when the world switches it
// absorbs are cheap?
package armlike

import (
	"svtsim/internal/cost"
	"svtsim/internal/isa"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

type port struct{}

func init() { ports.Register(port{}) }

func (port) Name() string { return "armlike" }

// Costs returns the EL2 calibration. It starts from the x86 Table 1
// model and rescales the architecture-owned primitives; the software
// costs (dispatch, emulation bodies, SW-SVt rings) stay close to x86
// because they are host-kernel C code, not µcode.
func (port) Costs() cost.Model {
	m := cost.Baseline()

	// World switches: a trap to EL2 saves a handful of registers and
	// flips no VMCS — roughly a third of a VT-x leg.
	m.ExitHW = 110
	m.EntryHW = 70
	m.ThunkRegs = 8 // EL2 entry stubs spill far fewer registers

	// There is no VMCS pointer to load; switching the active nested
	// context re-points VNCR_EL2 and swaps a smaller state bundle.
	m.VMPtrLd = 40
	m.LevelStateSwap = 120

	// NV2 redirects most EL2 sysreg accesses to memory — an untrapped
	// load/store, not a µcoded VMREAD/VMWRITE.
	m.VMRead = 12
	m.VMWrite = 12
	// ...and correspondingly, the rare trapped access is cheap to
	// emulate because the state is already memory-resident.
	m.EmulVMCSAccess = 60

	// Lazy context switching shrinks with the smaller switched state.
	m.LazyL2L0 = 350
	m.LazyL0toL1 = 1000
	m.LazyL1 = 650

	// Sysreg-shaped emulation paths: ID-register synthesis and timer
	// reprogramming are marginally cheaper than their MSR cousins.
	m.EmulCPUID = 320
	m.EmulMSR = 300
	m.InstrMSR = 35

	// vGIC: injection is a list-register write; ack reads ICC_IAR.
	m.IRQInject = 260
	m.IRQAck = 150
	m.GuestIRQHandler = 550

	// SVt stall/resume and cross-context register access model SMT
	// front-end hardware, not the ISA — unchanged. SW-SVt ring costs
	// are cache-coherency-bound and also carry over.
	return m
}

// exitNames is the EL2 vocabulary for the shared exit-reason enum,
// indexed by isa.ExitReason. Every reason must have a distinct
// non-empty name (enforced by TestPortConformance).
var exitNames = [isa.NumExitReasons]string{
	isa.ExitNone:              "NONE",
	isa.ExitExternalInterrupt: "IRQ_EL2",
	isa.ExitCPUID:             "TRAP_SYSREG_ID",
	isa.ExitHLT:               "TRAP_WFI",
	isa.ExitVMCall:            "HVC",
	isa.ExitVMPtrLd:           "NV_LOAD_VNCR",
	isa.ExitVMRead:            "TRAP_SYSREG_RD_EL2",
	isa.ExitVMWrite:           "TRAP_SYSREG_WR_EL2",
	isa.ExitVMLaunch:          "TRAP_ERET_FIRST",
	isa.ExitVMResume:          "TRAP_ERET",
	isa.ExitINVEPT:            "TLBI_S2",
	isa.ExitMSRRead:           "TRAP_SYSREG_RD",
	isa.ExitMSRWrite:          "TRAP_SYSREG_WR",
	isa.ExitIOInstruction:     "DABT_S2_MMIO",
	isa.ExitEPTViolation:      "DABT_S2",
	isa.ExitEPTMisconfig:      "DABT_S2_DEVICE",
	isa.ExitCRAccess:          "TRAP_SCTLR",
	isa.ExitPause:             "TRAP_WFE",
	isa.ExitPreemptionTimer:   "TIMER_EL2",
	isa.ExitAPICWrite:         "TRAP_ICC_SYSREG",
	isa.ExitSVTBlocked:        "SVT_BLOCKED",
}

func (port) ExitName(r isa.ExitReason) string {
	if int(r) < len(exitNames) && exitNames[r] != "" {
		return exitNames[r]
	}
	return r.String()
}

// Classify uses the shared semantic mapping: a trapped WFI buckets like
// a trapped HLT, a stage-2 abort like an EPT violation.
func (port) Classify(r isa.ExitReason) ports.Class { return ports.DefaultClassify(r) }

func (port) NewIRQ(_ int, eng *sim.Engine) ports.IRQController {
	return ports.NewIRQ[ListRegs](eng)
}

func (port) IRQSectionPrefix() string { return "vgic" }
