package hv

import (
	"fmt"
	"strings"

	"svtsim/internal/cost"
	"svtsim/internal/cpu"
	"svtsim/internal/isa"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/uerr"
	"svtsim/internal/vmcs"
)

const vecTimer = ports.VecTimer

// Mode selects which acceleration path the hypervisor uses.
type Mode int

// Modes.
const (
	ModeBaseline Mode = iota // stock nested virtualization (Algorithm 1)
	ModeSWSVt                // software-only prototype (§5.2)
	ModeHWSVt                // SVt hardware (§3–§4)
	// ModeHWSVtBypass adds the paper's §3.1 extension: SVt "selectively
	// bypasses some virtualization levels when triggering a VM trap" —
	// exits owned by the guest hypervisor are delivered straight to its
	// context with the exit information recorded in vmcs12 by hardware,
	// skipping L0's dispatch, reflection transform and injection on the
	// trap side (the resume side still goes through L0).
	ModeHWSVtBypass
)

func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeSWSVt:
		return "sw-svt"
	case ModeHWSVt:
		return "hw-svt"
	case ModeHWSVtBypass:
		return "hw-svt-bypass"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// HWSVt reports whether the mode gives every virtualization level its
// own hardware context, with registers resident there (§4).
func (m Mode) HWSVt() bool {
	return m == ModeHWSVt || m == ModeHWSVtBypass
}

// Threads is how many runnable threads a VM puts on the host: SW SVt
// pairs the vCPU with its SVt-thread (§5.2); HW SVt's extra contexts are
// per-core front-end state, not extra fetch targets.
func (m Mode) Threads() int {
	if m == ModeSWSVt {
		return 2
	}
	return 1
}

// AllModes returns the four system variants in their canonical order.
// The result is a fresh slice each call, so callers may reorder or trim
// it freely.
func AllModes() []Mode {
	return []Mode{ModeBaseline, ModeSWSVt, ModeHWSVt, ModeHWSVtBypass}
}

// ParseMode is the inverse of Mode.String, plus the "sw"/"hw" CLI
// shorthands — the one place mode names are parsed, so flags, reports,
// check repro files and svtsimd request bodies all agree. Failures are
// structured *uerr.E values: the CLI prints them flat, the server
// returns the fields as an HTTP 400 body.
func ParseMode(s string) (Mode, error) {
	switch strings.TrimSpace(s) {
	case "baseline":
		return ModeBaseline, nil
	case "sw-svt", "sw":
		return ModeSWSVt, nil
	case "hw-svt", "hw":
		return ModeHWSVt, nil
	case "hw-svt-bypass", "bypass":
		return ModeHWSVtBypass, nil
	case "":
		return 0, uerr.New("mode", s, "empty mode name",
			"valid: baseline, sw-svt, hw-svt, hw-svt-bypass (shorthands: sw, hw, bypass)")
	default:
		return 0, uerr.New("mode", s, "unknown mode",
			"valid: baseline, sw-svt, hw-svt, hw-svt-bypass (shorthands: sw, hw, bypass)")
	}
}

// Device is an emulated MMIO device (virtio transport): MMIOWrite handles
// trapped accesses to its window (kicks); OnIRQ runs completion
// processing in the owning kernel's execution context.
type Device interface {
	MMIOWrite(gpa, val uint64)
	OnIRQ()
}

// SWChannel is the SW SVt command-slot path: Reflect delivers a nested
// exit to the SVt-thread on the sibling SMT context and blocks (in
// virtual time) until the thread answers with a VM-resume command.
type SWChannel interface {
	// ReflectAndWait reports whether the exit was serviced over the
	// channel; false degrades this exit to the baseline trap/resume path
	// (the channel's watchdog gave up or its breaker is open).
	ReflectAndWait(e isa.Exit) bool
	// PendingForL1 reports whether the SVt-thread has interrupts waiting,
	// so external-interrupt exits get reflected even though the (blocked)
	// L1 main vCPU shows nothing pending.
	PendingForL1() bool
	// Wake runs the other L1 vCPU when it holds interrupts the halted
	// L1 vCPU vc waits on, and reports whether it ran it.
	Wake(vc *VCPU) bool
}

// VCPU is one virtual CPU of a guest this hypervisor runs.
type VCPU struct {
	Name string
	Ctx  cpu.ContextID
	VMCS *vmcs.VMCS
	// VMCSAddr is the guest-physical address the owning (guest) hypervisor
	// believes its VMCS lives at; VMPTRLD traps carry it.
	VMCSAddr uint64
	Guest    cpu.Guest
	RunState *cpu.RunState
	// Lvl is the ctxtld/ctxtst level argument for reaching this guest's
	// registers (1 = direct guest, 2 = nested guest).
	Lvl int

	// VirtLAPIC is the guest's virtual interrupt controller: vectors routed
	// to this vCPU land here and are injected on the next VM entry.
	VirtLAPIC ports.IRQController

	// Nested carries the state for a guest that is itself a hypervisor.
	Nested *NestedState

	msrStore map[uint32]uint64

	// Halted is exported for tests/inspection.
	Halted bool

	// obsLabel caches this vCPU's interned tracer label (0 = not yet
	// interned; label 0 is the empty string, so the cache is self-priming).
	obsLabel obs.Label
}

// MSRSnapshot returns a copy of the vCPU's emulated MSR store (the
// architectural values a guest reads back through trapped RDMSRs). The
// differential harness folds it into the end-of-run state digest.
func (vc *VCPU) MSRSnapshot() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(vc.msrStore))
	for k, v := range vc.msrStore {
		out[k] = v
	}
	return out
}

// NewVCPU builds a vCPU record.
func NewVCPU(name string, ctx cpu.ContextID, v *vmcs.VMCS, g cpu.Guest, lvl int) *VCPU {
	return &VCPU{
		Name:     name,
		Ctx:      ctx,
		VMCS:     v,
		Guest:    g,
		RunState: &cpu.RunState{},
		Lvl:      lvl,
		msrStore: make(map[uint32]uint64),
	}
}

// NestedState is what the L0 hypervisor keeps per guest-hypervisor vCPU
// (Figure 2): the shadow copy of the guest hypervisor's VMCS (vmcs12),
// the VMCS hardware actually runs (vmcs02), and the synthetic vCPU used
// to run the nested guest.
type NestedState struct {
	Vmcs12     *vmcs.VMCS
	Vmcs12Addr uint64 // guest-physical address L1 gave its VMCS
	Vmcs02     *vmcs.VMCS
	L2VCPU     *VCPU
	Active     bool // VMPTRLD seen, shadowing on

	// Xlat translates L1-physical pointers for the vmcs12→vmcs02
	// transform.
	Xlat vmcs.PointerXlat

	// OnEPTP is invoked when L1 writes the EPT pointer of vmcs12 so the
	// machine can (re)build the composed shadow EPT for vmcs02.
	OnEPTP func(eptp12 uint64)
}

// Profile accumulates per-exit-reason handling time, the measurement the
// paper's §6.2/§6.3 profiles report (EPT_MISCONFIG and MSR_WRITE shares).
type Profile struct {
	Time  [isa.NumExitReasons]sim.Time
	Count [isa.NumExitReasons]uint64
	Total sim.Time
}

// Share reports the fraction of total handling time spent on reason r.
func (p *Profile) Share(r isa.ExitReason) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Time[r]) / float64(p.Total)
}

// Hypervisor is the trap-and-emulate engine. One instance runs as L0 (on
// a RealPlatform) and another as L1 (on a VirtualPlatform); the handler
// code is shared, as in KVM running nested on KVM.
type Hypervisor struct {
	Name  string
	P     Platform
	Costs *cost.Model
	Level int // 0 = host hypervisor, 1 = guest hypervisor
	Mode  Mode

	// Devices maps device IDs (EPT misconfig qualification) to models.
	Devices map[uint64]Device
	// VectorRoute maps host-side interrupt vectors to the vCPU whose
	// guest should receive them.
	VectorRoute map[int]*VCPU
	// VectorToDevice maps host-side vectors to devices whose completion
	// processing (OnIRQ) must run in this kernel.
	VectorToDevice map[int]Device

	// SW is the SW SVt channel; set only on L0 in ModeSWSVt. Its
	// presence is what sends L1-owned nested exits over the channel.
	SW SWChannel

	// NoVMCSShadowing disables hardware VMCS shadowing (ablation): every
	// guest-hypervisor VMREAD/VMWRITE then traps.
	NoVMCSShadowing bool

	// DropOwnedExit is a test hook for the differential harness: when it
	// returns true for a nested exit the guest hypervisor owns, L0 handles
	// the exit itself instead of delivering it — a deliberately broken
	// reflection the equivalence oracle must catch. Never set in
	// production paths.
	DropOwnedExit func(e isa.Exit) bool

	Prof Profile
	// NestedProf attributes L0 handling time to the nested guest's exit
	// reasons (the §6.2/§6.3 profiles: EPT_MISCONFIG, MSR_WRITE shares).
	NestedProf Profile

	obs *obs.Tracer

	// DeadlockDetected is set when Idle found no further events.
	DeadlockDetected bool
}

// New builds a hypervisor instance.
func New(name string, p Platform, costs *cost.Model, level int, mode Mode) *Hypervisor {
	return &Hypervisor{
		Name:           name,
		P:              p,
		Costs:          costs,
		Level:          level,
		Mode:           mode,
		Devices:        make(map[uint64]Device),
		VectorRoute:    make(map[int]*VCPU),
		VectorToDevice: make(map[int]Device),
	}
}

// InjectIRQ queues vector vec for vc's guest; it is written into the
// VMCS entry-interruption field just before the next VM entry.
func (h *Hypervisor) InjectIRQ(vc *VCPU, vec int) {
	if vc.VirtLAPIC != nil {
		vc.VirtLAPIC.Deliver(vec)
	}
}

// maybeInject moves one pending virtual vector into the entry-interruption
// field. For an L1-managed guest this VMWRITE traps to L0 (ENTRY_INTR_INFO
// is not shadowable), one of the extra exits nested virtualization pays on
// interrupt paths.
func (h *Hypervisor) maybeInject(vc *VCPU) {
	if vc.VirtLAPIC == nil || !vc.VirtLAPIC.HasPending() {
		return
	}
	// The software-cached copy of the entry field tells us whether an
	// injection is already latched (KVM caches this to avoid VMREADs).
	if vc.VMCS.Read(vmcs.EntryIntrInfo)&cpu.InjectValid != 0 {
		return
	}
	vec, _ := vc.VirtLAPIC.PendingVector()
	vc.VirtLAPIC.Ack(vec)
	h.P.Charge(h.Costs.IRQInject)
	h.P.VMWrite(vc.VMCS, vmcs.EntryIntrInfo, cpu.InjectValid|uint64(vec))
	// Opening the interrupt window rewrites the execution controls —
	// never shadowed, so for a guest hypervisor this is a second exit on
	// every injection.
	h.P.VMWrite(vc.VMCS, vmcs.ProcControls, vc.VMCS.Read(vmcs.ProcControls))
}

// PrepareResume latches a pending virtual vector into the guest's VMCS
// before a resume; the SW SVt thread calls it before answering with
// CMD_VM_RESUME.
func (h *Hypervisor) PrepareResume(vc *VCPU) { h.maybeInject(vc) }

// RunLoop runs vc until its workload completes (or deadlock). This is the
// `for { exit = VMRESUME; handle(exit) }` loop at the heart of every
// trap-and-emulate hypervisor.
func (h *Hypervisor) RunLoop(vc *VCPU) {
	for {
		h.maybeInject(vc)
		e := h.P.Run(vc)
		start := h.P.Now()
		stop := h.Handle(vc, e)
		d := h.P.Now() - start
		h.Prof.Time[e.Reason] += d
		h.Prof.Count[e.Reason]++
		h.Prof.Total += d
		h.traceExit(vc, e, false, start)
		if stop {
			return
		}
	}
}

// SetObs attaches (or detaches, with nil) the observability tracer.
// Exit spans land on the track of the exiting vCPU's hardware context.
func (h *Hypervisor) SetObs(t *obs.Tracer) { h.obs = t }

// traceExit records one handled exit as a span on the exiting vCPU's
// hardware-context track.
func (h *Hypervisor) traceExit(vc *VCPU, e isa.Exit, nested bool, start sim.Time) {
	if h.obs == nil {
		return
	}
	kind := obs.KindVMExit
	if nested {
		kind = obs.KindNestedExit
	}
	if vc.obsLabel == 0 {
		vc.obsLabel = h.obs.Intern(vc.Name)
	}
	h.obs.Span(int(vc.Ctx), kind, uint8(vc.Lvl), vc.obsLabel,
		start, h.P.Now(), uint64(e.Reason), e.Qualification)
}

// advanceRIP moves the guest's instruction pointer past the emulated
// instruction. Under VMCS shadowing these accesses do not trap at L1.
func (h *Hypervisor) advanceRIP(vc *VCPU, e isa.Exit) {
	rip := h.P.VMRead(vc.VMCS, vmcs.GuestRIP)
	h.P.VMWrite(vc.VMCS, vmcs.GuestRIP, rip+e.InstrLen)
}

// Handle dispatches one VM exit. It reports whether the run loop should
// stop.
func (h *Hypervisor) Handle(vc *VCPU, e isa.Exit) bool {
	// Dispatch and lazy-switch costs (§2.3; Table 1 folds lazy context
	// switching into the handler stages — SVt eliminates it).
	if h.Level == 0 {
		if e.Reason == isa.ExitVMResume {
			h.P.Charge(h.Costs.DispatchNested)
		} else {
			h.P.Charge(h.Costs.DispatchSimple)
		}
	} else {
		h.P.Charge(h.Costs.HandlerBaseL1)
		if h.Mode == ModeBaseline {
			h.P.Charge(h.Costs.LazyL1)
		}
	}

	switch e.Reason {
	case isa.ExitCPUID:
		h.emulCPUID(vc, e)
	case isa.ExitMSRWrite, isa.ExitAPICWrite:
		h.emulMSRWrite(vc, e)
	case isa.ExitMSRRead:
		h.emulMSRRead(vc, e)
	case isa.ExitEPTMisconfig:
		h.emulMMIO(vc, e)
	case isa.ExitHLT:
		return h.handleHalt(vc, e)
	case isa.ExitExternalInterrupt:
		h.handleExtInt(vc, e)
	case isa.ExitVMResume:
		return h.handleVMResume(vc, e)
	case isa.ExitVMPtrLd:
		h.handleVMPtrLd(vc, e)
	case isa.ExitVMRead:
		h.handleVMRead(vc, e)
	case isa.ExitVMWrite:
		h.handleVMWrite(vc, e)
	case isa.ExitEPTViolation:
		panic(fmt.Sprintf("%s: unexpected EPT violation at %#x from %s", h.Name, e.GuestPA, vc.Name))
	case isa.ExitVMCall:
		return h.handleVMCall(vc, e)
	case isa.ExitSVTBlocked:
		h.advanceRIP(vc, e)
	default:
		panic(fmt.Sprintf("%s: unhandled exit %s from %s", h.Name, e.String(), vc.Name))
	}
	return false
}

func (h *Hypervisor) emulCPUID(vc *VCPU, e isa.Exit) {
	leaf := h.P.ReadGuestGPR(vc, isa.RAX)
	h.P.Charge(h.Costs.EmulCPUID)
	// Deterministic synthetic leaf contents.
	h.P.WriteGuestGPR(vc, isa.RAX, leaf^0x756E6547)
	h.P.WriteGuestGPR(vc, isa.RBX, leaf*0x01000193)
	h.P.WriteGuestGPR(vc, isa.RCX, leaf+0x49656E69)
	h.P.WriteGuestGPR(vc, isa.RDX, leaf|0x6C65746E)
	h.advanceRIP(vc, e)
}

func (h *Hypervisor) emulMSRWrite(vc *VCPU, e isa.Exit) {
	addr := uint32(e.Qualification)
	h.P.Charge(h.Costs.EmulMSR)
	vc.msrStore[addr] = e.Value
	if addr == isa.MSRTSCDeadline {
		// Virtualize the guest's deadline timer: arm the platform timer and
		// remember who owns the firing.
		h.VectorRoute[vecTimer] = vc
		h.P.SetTimer(vc, sim.Time(e.Value))
	}
	h.advanceRIP(vc, e)
}

func (h *Hypervisor) emulMSRRead(vc *VCPU, e isa.Exit) {
	addr := uint32(e.Qualification)
	h.P.Charge(h.Costs.EmulMSR)
	h.P.WriteGuestGPR(vc, isa.RAX, vc.msrStore[addr])
	h.advanceRIP(vc, e)
}

func (h *Hypervisor) emulMMIO(vc *VCPU, e isa.Exit) {
	dev := h.Devices[e.Qualification]
	if dev == nil {
		panic(fmt.Sprintf("%s: EPT misconfig for unknown device %d at %#x", h.Name, e.Qualification, e.GuestPA))
	}
	// The instruction emulator consults the guest's mode (CR0/EFER) before
	// decoding the access; CR state is not hardware-shadowable, so this
	// read is one of the extra exits a guest hypervisor pays per MMIO.
	_ = h.P.VMRead(vc.VMCS, vmcs.GuestCR0)
	h.P.Charge(h.Costs.EmulMMIO)
	dev.MMIOWrite(e.GuestPA, e.Value)
	h.advanceRIP(vc, e)
}

func (h *Hypervisor) handleHalt(vc *VCPU, e isa.Exit) bool {
	vc.Halted = true
	defer func() { vc.Halted = false }()
	h.P.Charge(h.Costs.EmulIRQWindow)
	for {
		// A vector latched for the next entry wakes the vCPU too: another
		// vCPU of its hypervisor may have injected it.
		if vc.VirtLAPIC != nil && vc.VirtLAPIC.HasPending() ||
			vc.VMCS.Read(vmcs.EntryIntrInfo)&cpu.InjectValid != 0 {
			break
		}
		if h.SW != nil && h.SW.Wake(vc) {
			break
		}
		if !h.P.Idle(vc) {
			h.DeadlockDetected = true
			return true
		}
		if h.Level == 0 {
			break // a physical vector arrived; the run loop will surface it
		}
		h.P.(*VirtualPlatform).Port.PollIRQs()
	}
	h.advanceRIP(vc, e)
	return false
}

// handleExtInt acknowledges a physical interrupt and runs the kernel's
// dispatch: device completion processing and routing to guest vCPUs. At
// L1 the dispatch happens through the kernel IRQ poll instead, since the
// vector already sits in L1's virtual LAPIC.
func (h *Hypervisor) handleExtInt(vc *VCPU, e isa.Exit) {
	h.P.Charge(h.Costs.IRQAck)
	if h.Level == 0 {
		h.P.(*RealPlatform).AckIRQ(vc, e.Vector)
		h.HandleKernelIRQ(e.Vector)
	} else {
		h.P.(*VirtualPlatform).Port.PollIRQs()
	}
}

func (h *Hypervisor) handleVMCall(vc *VCPU, e isa.Exit) bool {
	switch e.Qualification {
	case cpu.QualGuestDone:
		return true
	case cpu.QualPairThreads:
		// The SW SVt thread-pairing hypercall (§5.2): the channel's
		// wiring already records the pairing, so L0 only reads the
		// argument register, which costs a register access.
		if h.SW != nil {
			h.P.ReadGuestGPR(vc, isa.RAX)
		}
		h.advanceRIP(vc, e)
		return false
	default:
		h.advanceRIP(vc, e)
		return false
	}
}
