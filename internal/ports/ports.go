// Package ports defines the architecture-port boundary of the
// simulator: everything ISA-specific — the exit-reason naming and
// taxonomy, the world-switch/trap cost model, the interrupt
// controller's pending-vector set, and the snapshot section naming for
// interrupt-controller state — sits behind the Port interface, the way
// hosted hypervisors abstract KVM/HVF/WHP backends or multiplex GIC
// v2/v3 against the APIC.
//
// The rest of the engine (hv, cpu, machine, host, exp, snapshot) is
// port-generic: it speaks isa.ExitReason values, the one interrupt
// controller (IRQ) and the canonical vector numbers below, and never
// names a port's pending set. internal/ports/x86 wraps the original
// LAPIC/VT-x stack (byte-identical to the pre-ports behavior);
// internal/ports/armlike models trap-to-EL2 costs and vGIC-style list
// registers, answering the ROADMAP question of whether SVt's win
// survives on ISAs with cheaper world switches.
package ports

import (
	"sort"
	"strings"
	"sync"

	"svtsim/internal/cost"
	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/uerr"
)

// Canonical vector numbers used by the simulated machines. They are
// port-independent simulation identifiers (a port may present them as
// x86 vectors or GIC INTIDs); what differs per port is the controller's
// prioritization and pending-delivery semantics, not the numbering.
const (
	VecTimer     = 0xEC // virtualized deadline timer
	VecVirtioNet = 0x24
	VecVirtioBlk = 0x25
	VecIPI       = 0xFB
	VecSpurious  = 0xFF
)

// Class is the port-neutral exit taxonomy: every port groups its exit
// reasons into these buckets so exporters, summaries and the per-port
// comparison table render sensibly for non-VT-x exit names.
type Class int

// Exit classes.
const (
	ClassInterrupt  Class = iota // external interrupts, timer firings
	ClassPrivileged              // trapped privileged instructions (CPUID/MSR/sysreg)
	ClassMemory                  // second-stage translation faults
	ClassIO                      // device MMIO / IO-instruction emulation
	ClassVMOp                    // virtualization instructions (VMX ops / nested-virt traps)
	ClassSynthetic               // simulation-level markers (done, SVt blocked, none)
	NumClasses
)

var classNames = [...]string{
	"interrupt", "privileged", "memory", "io", "vm-op", "synthetic",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(?)"
}

// DefaultClassify maps the shared exit-reason enum into the taxonomy.
// The mapping is semantic, not ISA-specific — a trapped WFI classifies
// exactly like a trapped HLT — so both bundled ports use it; a port
// with reasons outside the shared enum would override it.
func DefaultClassify(r isa.ExitReason) Class {
	switch r {
	case isa.ExitExternalInterrupt, isa.ExitPreemptionTimer:
		return ClassInterrupt
	case isa.ExitCPUID, isa.ExitMSRRead, isa.ExitMSRWrite, isa.ExitAPICWrite,
		isa.ExitCRAccess, isa.ExitHLT, isa.ExitPause:
		return ClassPrivileged
	case isa.ExitEPTViolation:
		return ClassMemory
	case isa.ExitEPTMisconfig, isa.ExitIOInstruction:
		return ClassIO
	case isa.ExitVMCall, isa.ExitVMPtrLd, isa.ExitVMRead, isa.ExitVMWrite,
		isa.ExitVMLaunch, isa.ExitVMResume, isa.ExitINVEPT:
		return ClassVMOp
	default:
		return ClassSynthetic
	}
}

// Port is one architecture backend. Implementations must be stateless
// values (safe for concurrent use across parallel experiment sweeps).
type Port interface {
	// Name is the canonical port name ("x86", "armlike"); it flows
	// through the -port CLI flag, svtsimd request digests and snapshot
	// section naming.
	Name() string

	// Costs returns the calibrated world-switch/trap cost model for
	// this architecture. The x86 port returns the paper's Table 1
	// calibration; other ports return their own measurements.
	Costs() cost.Model

	// ExitName renders an exit reason in the architecture's vocabulary
	// (EPT_MISCONFIG vs DABT_S2_DEVICE).
	ExitName(r isa.ExitReason) string
	// Classify buckets an exit reason into the port-neutral taxonomy.
	Classify(r isa.ExitReason) Class

	// NewIRQ builds one interrupt controller (a LAPIC, a vGIC CPU
	// interface, ...) bound to the engine: an IRQ over the port's
	// pending set. id names the hardware context; the controller does
	// not keep it.
	NewIRQ(id int, eng *sim.Engine) IRQController
	// IRQSectionPrefix names this port's interrupt-controller snapshot
	// sections ("lapic" for x86, "vgic" for armlike). Snapshot digests
	// fold section names, so the prefix keeps cross-port snapshots
	// distinct and the x86 prefix is frozen forever.
	IRQSectionPrefix() string
}

var (
	regMu    sync.Mutex
	registry = map[string]Port{}
)

// Register adds a port to the registry; ports self-register from their
// package init. Re-registering a name replaces it (last wins), which
// keeps tests free to install doubles.
func Register(p Port) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[p.Name()] = p
}

// Get returns a registered port, or nil. Callers that need a concrete
// default should import the port package directly (the x86 port's
// package exports its value) rather than rely on registration order.
func Get(name string) Port {
	regMu.Lock()
	defer regMu.Unlock()
	return registry[name]
}

// Names lists the registered port names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefaultName is the default architecture port's registry name. Empty
// port strings everywhere (flags, request bodies) resolve to it.
const DefaultName = "x86"

// Parse resolves a port name (the one place port names are parsed, so
// the -port flag, svtsimd request bodies and saved comparisons agree).
// The empty string resolves to "x86", the default architecture.
// Failures are structured *uerr.E values: the CLI prints them flat, the
// server returns the fields as an HTTP 400 body.
func Parse(s string) (Port, error) {
	name := strings.TrimSpace(s)
	if name == "" {
		name = DefaultName
	}
	if p := Get(name); p != nil {
		return p, nil
	}
	return nil, uerr.New("port", s, "unknown port",
		"valid: "+strings.Join(Names(), ", "))
}
