// Package machine assembles the full simulated system of the paper's
// evaluation (Table 4): host hypervisor (L0), guest hypervisor (L1) and
// nested VM (L2), in any of the three configurations — baseline nested
// virtualization, the SW SVt prototype, and the HW SVt hardware model —
// and runs workloads on it.
package machine

import (
	"fmt"

	"svtsim/internal/cost"
	"svtsim/internal/cpu"
	"svtsim/internal/ept"
	"svtsim/internal/fault"
	"svtsim/internal/hv"
	"svtsim/internal/mem"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	x86port "svtsim/internal/ports/x86"
	"svtsim/internal/sim"
	"svtsim/internal/swsvt"
)

// Physical layout of the simulated machine. RAM windows are sized for
// the synthetic workloads, not the testbed's full 128 GB — the sparse
// memory model supports the full size, but experiments touch megabytes.
const (
	HostMemSize = 128 << 30 // Table 4: 2×64 GB

	L1RAMBase = 0x1_0000_0000 // host-physical placement of L1's RAM
	L1RAMSize = 64 << 20

	L2InL1Base = 16 << 20 // L2's RAM inside L1's guest-physical space
	L2RAMSize  = 32 << 20

	// Virtio device windows (guest-physical, EPT-misconfigured).
	L1NetMMIO = 0xFE00_0000
	L1BlkMMIO = 0xFE01_0000
	L2NetMMIO = 0xFE00_0000
	L2BlkMMIO = 0xFE01_0000
	MMIOSize  = 0x1000

	// Device IDs (EPT misconfig qualification values).
	DevL1Net uint64 = 1
	DevL1Blk uint64 = 2
	DevL2Net uint64 = 11
	DevL2Blk uint64 = 12

	// Guest-physical addresses inside L1 used by its hypervisor.
	Vmcs12GPA    = 0x0010_0000
	MSRBitmapGPA = 0x0010_2000

	// EPT pointer identifiers.
	EPTP01 uint64 = 0xE001
	EPTP12 uint64 = 0xE012
	EPTP02 uint64 = 0xE002
)

// Config selects the machine variant.
type Config struct {
	Mode  hv.Mode
	Costs cost.Model
	Seed  int64

	// Port is the architecture backend: it supplies the interrupt
	// controllers, the exit vocabulary/taxonomy, and the snapshot
	// section prefix. Nil means the default x86 port. Costs is kept
	// separate (rather than always deriving from Port) so sweeps can
	// perturb individual cost primitives of a port's model.
	Port ports.Port

	// SW SVt channel parameters (§5.2/§6.1).
	WaitPolicy      swsvt.Policy
	Placement       swsvt.Placement
	BlockedProtocol bool

	// WireL0 attaches workload devices to the host hypervisor at build
	// time (virtio backends for L1's devices).
	WireL0 func(m *Machine)
	// WireL1 attaches workload devices to the guest hypervisor; it runs
	// inside L1 on the vCPU that takes L1's device interrupts: the main
	// vCPU as it boots, or under SW SVt the SVt-thread on its first run.
	WireL1 func(m *Machine, h1 *hv.Hypervisor, port *cpu.Port)
	// DisableVMCSShadowing turns off hardware VMCS shadowing (§2.1), the
	// ablation that quantifies how many of the guest hypervisor's field
	// accesses the hardware absorbs.
	DisableVMCSShadowing bool

	// Faults optionally arms the deterministic fault-injection plane.
	// Nil (or a spec with no sites) registers no injector: the run is
	// bit-identical to a build without the plane.
	Faults *fault.Spec

	// Obs optionally arms the observability plane (tracer + metrics
	// registry). Nil leaves every component's tracer pointer nil, which
	// is the zero-cost disabled path; armed or not, simulation results
	// are identical — the plane only ever records, never charges time.
	Obs *obs.Options
}

// DefaultConfig returns the calibrated configuration for a mode.
func DefaultConfig(mode hv.Mode) Config {
	return Config{
		Mode:            mode,
		Costs:           cost.Baseline(),
		Port:            x86port.Port(),
		Seed:            1,
		WaitPolicy:      swsvt.PolicyMwait,
		Placement:       swsvt.PlaceSMT,
		BlockedProtocol: true,
	}
}

// Machine is an assembled simulation instance.
type Machine struct {
	Cfg Config

	Eng     *sim.Engine
	Core    *cpu.Core
	HostMem *mem.Memory

	// Faults is the live fault plane (nil on healthy runs).
	Faults *fault.Plane

	// Obs is the live observability plane (nil when Config.Obs was nil).
	Obs *obs.Plane

	L0   *hv.Hypervisor
	Real *hv.RealPlatform

	// Nested stack (nil for single-level machines).
	VcpuL1  *hv.VCPU
	L1Guest *cpu.NativeGuest
	L1HV    *hv.Hypervisor
	VC12    *hv.VCPU
	Ns      *hv.NestedState

	Ept01 *ept.Table
	Ept12 *ept.Table
	Ept02 *ept.Table

	// SW SVt plumbing.
	Chan      *swsvt.Channel
	SVtGuest  *cpu.NativeGuest
	SVtThread *swsvt.SVtThread
	VcpuSVt   *hv.VCPU

	// Single-level guest (Figure 6's "L1" bar).
	VcpuGuest *hv.VCPU

	eptByVal      map[uint64]*ept.Table
	nctx          int
	l2NativeGuest *cpu.NativeGuest
}

func contextsFor(mode hv.Mode) int {
	if mode.HWSVt() {
		return 3 // L0, L1, L2 each on their own SVt context
	}
	// One context per host thread; SW SVt's SMT pair is
	// L0₀+L2 / L0₁+L1-SVt-thread.
	return mode.Threads()
}

func newBase(cfg Config, nctx int) *Machine {
	if cfg.Port == nil {
		cfg.Port = x86port.Port()
	}
	m := &Machine{Cfg: cfg, nctx: nctx}
	m.Eng = sim.New()
	m.Faults = cfg.Faults.Build(m.Eng)
	// Livelock guard: no healthy simulation dispatches anywhere near this
	// many events at a single virtual instant, so tripping it means two
	// components are waking each other without time advancing. The engine
	// panics with a structured report (rings, LAPICs, channel state)
	// instead of hanging the process.
	m.Eng.SetStallLimit(1_000_000)
	m.HostMem = mem.New(HostMemSize)
	m.Core = cpu.New(m.Eng, &m.Cfg.Costs, nctx)
	for i := 0; i < nctx; i++ {
		l := cfg.Port.NewIRQ(i, m.Eng)
		m.Core.SetLAPIC(cpu.ContextID(i), l)
		m.Eng.AddProbe(fmt.Sprintf("%s%d", cfg.Port.IRQSectionPrefix(), i), l.ProbeState)
	}
	if cfg.Mode.HWSVt() {
		m.Core.EnableSVt()
	}
	m.Real = hv.NewRealPlatform(m.Core)
	m.L0 = hv.New("L0", m.Real, &m.Cfg.Costs, 0, cfg.Mode)
	m.L0.NoVMCSShadowing = cfg.DisableVMCSShadowing
	// L0's EPT for L1: RAM window plus L1's virtio device windows.
	m.Ept01 = ept.New("ept01")
	must(m.Ept01.Map(0, L1RAMBase, L1RAMSize, ept.PermRWX))
	must(m.Ept01.MapMisconfig(L1NetMMIO, MMIOSize, DevL1Net))
	must(m.Ept01.MapMisconfig(L1BlkMMIO, MMIOSize, DevL1Blk))
	m.Core.RegisterEPT(EPTP01, m.Ept01)
	if cfg.Obs != nil {
		m.wireObs(*cfg.Obs)
	}
	return m
}

// wireObs assembles the observability plane and attaches it to the
// components newBase built; level-specific wiring (virtual LAPICs, the
// SW-SVt channel, L1 hypervisor instances, devices) happens where those
// are created. Everything here records; nothing charges virtual time.
func (m *Machine) wireObs(o obs.Options) {
	m.Obs = obs.New(m.nctx, o)
	tr, reg := m.Obs.Tracer, m.Obs.Metrics

	et := tr.EngineTrack()
	n := 0
	m.Eng.SetDispatchHook(func(t sim.Time) {
		n++
		if n%obs.DispatchSample == 0 {
			tr.Instant(et, obs.KindDispatch, obs.LevelNone, 0, t, uint64(n), 0)
		}
	})
	tr.SetExitNamer(m.Cfg.Port.ExitName)
	m.Core.Obs = tr
	for i := 0; i < m.nctx; i++ {
		if l := m.Core.LAPIC(cpu.ContextID(i)); l != nil {
			l.SetObs(tr, i, fmt.Sprintf("%s%d", m.Cfg.Port.IRQSectionPrefix(), i))
			// The metric namespace stays "apic.ctx*" on every port: it
			// names the per-context controller role, not the hardware.
			l.Metrics(reg, fmt.Sprintf("apic.ctx%d", i))
		}
	}
	m.L0.SetObs(tr)
	if m.Faults != nil {
		m.Faults.SetObs(tr, tr.DeviceTrack())
		reg.RegisterCounter("fault.fires", m.Faults.FiresCounter())
	}
	// Nested exits the SW-SVt channel declined (watchdog exhaustion or
	// open breaker) and L0 serviced on the trap/resume path instead.
	reg.RegisterFunc("hv.l0.sw_fallbacks", func() float64 {
		if m.Chan == nil {
			return 0
		}
		return float64(m.Chan.Fallbacks.Value() + m.Chan.FallbackReflections.Value())
	})
	reg.RegisterFunc("hv.l0.handle_ns", func() float64 { return float64(m.L0.Prof.Total) })
	reg.RegisterFunc("hv.l0.nested_handle_ns", func() float64 { return float64(m.L0.NestedProf.Total) })
	reg.RegisterFunc("sim.dispatched", func() float64 { return float64(m.Eng.Dispatched()) })
	reg.RegisterFunc("sim.now_ns", func() float64 { return float64(m.Eng.Now()) })
	st := &m.Core.Stats
	reg.RegisterFunc("core.entries", func() float64 { return float64(st.Entries) })
	reg.RegisterFunc("core.stall_resumes", func() float64 { return float64(st.StallResumes) })
	reg.RegisterFunc("core.thunk_reg_moves", func() float64 { return float64(st.ThunkRegMoves) })
	reg.RegisterFunc("core.ctxt_accesses", func() float64 { return float64(st.CtxtAccesses) })
	reg.RegisterFunc("core.instructions", func() float64 { return float64(st.Instructions) })
	reg.RegisterFunc("core.level_swaps", func() float64 { return float64(st.LevelSwaps) })
	reg.RegisterFunc("core.injected_irqs", func() float64 { return float64(st.InjectedIRQs) })
}

// NewNested assembles the full three-level stack.
func NewNested(cfg Config) *Machine {
	m := newBase(cfg, contextsFor(cfg.Mode))

	// L1's EPT for L2 (built by L1 at boot in reality; static here) plus
	// L2's virtio device windows, emulated by L1.
	m.Ept12 = ept.New("ept12")
	must(m.Ept12.Map(0, L2InL1Base, L2RAMSize, ept.PermRWX))
	must(m.Ept12.MapMisconfig(L2NetMMIO, MMIOSize, DevL2Net))
	must(m.Ept12.MapMisconfig(L2BlkMMIO, MMIOSize, DevL2Blk))
	m.eptByVal = map[uint64]*ept.Table{EPTP01: m.Ept01, EPTP12: m.Ept12}

	// VMCS triple.
	vmcs01 := hv.NewVisorVMCS("vmcs01", EPTP01, cfg.Mode)
	vmcs12, vmcs02 := hv.NewNestedVMCSPair(cfg.Mode)

	// Without HW SVt, L1 and L2 share the visor's context; with it each
	// level gets its own.
	l1ctx, l2ctx := cpu.VisorContext, cpu.VisorContext
	if cfg.Mode.HWSVt() {
		l1ctx, l2ctx = cpu.GuestContext, cpu.NestedContext
	}

	l2vcpu := hv.NewVCPU("L2.vcpu0", l2ctx, vmcs02, nil, 2)

	m.Ns = hv.NewNestedState(vmcs12, vmcs02, Vmcs12GPA, l2vcpu,
		func(gpa uint64) (uint64, error) {
			return m.Ept01.Translate(gpa, ept.PermR)
		})
	m.Ns.OnEPTP = func(eptp12 uint64) {
		inner := m.eptByVal[eptp12]
		if inner == nil {
			panic(fmt.Sprintf("machine: L1 installed unknown EPTP %#x", eptp12))
		}
		shadow, err := ept.Compose("ept02", inner, m.Ept01)
		if err != nil {
			panic(err)
		}
		m.Ept02 = shadow
		m.Core.RegisterEPT(EPTP02, shadow)
		m.Ns.SetShadowEPTP(EPTP02)
	}

	// L1's vCPU record for L2: the guest hypervisor's own view.
	m.VC12 = hv.NewVCPU("L1.vcpu-l2", 0, vmcs12, nil, 1)
	m.VC12.VMCSAddr = Vmcs12GPA
	m.VC12.VirtLAPIC = m.Cfg.Port.NewIRQ(100, m.Eng)

	// The main L1 vCPU: a native guest running the guest hypervisor, and
	// the one guest-hypervisor instance every L1 vCPU serves traps with.
	m.L1Guest = cpu.NewNativeGuest("L1-main", m.Core, l1ctx, m.l1Body)
	m.VcpuL1 = hv.NewVCPU("L1.vcpu0", l1ctx, vmcs01, m.L1Guest, 1)
	m.VcpuL1.Nested = m.Ns
	m.VcpuL1.VirtLAPIC = m.Cfg.Port.NewIRQ(10, m.Eng)
	m.L1Guest.Port().VirtLAPIC = m.VcpuL1.VirtLAPIC
	m.L1HV = hv.New("L1", hv.NewVirtualPlatform(m.L1Guest.Port()), &m.Cfg.Costs, 1, cfg.Mode)

	if cfg.Mode == hv.ModeSWSVt {
		m.buildSWSVt()
	}

	if m.Obs != nil {
		tr := m.Obs.Tracer
		m.L1HV.SetObs(tr)
		m.VcpuL1.VirtLAPIC.SetObs(tr, int(l1ctx), "L1.vcpu0.apic")
		m.VcpuL1.VirtLAPIC.Metrics(m.Obs.Metrics, "apic.l1")
		m.VC12.VirtLAPIC.SetObs(tr, int(l2ctx), "L1.vcpu-l2.apic")
		m.VC12.VirtLAPIC.Metrics(m.Obs.Metrics, "apic.l1-l2")
	}

	if cfg.WireL0 != nil {
		cfg.WireL0(m)
	}
	return m
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// buildSWSVt creates the SVt-thread vCPU, the command rings and the
// reflection channel (Figure 5). The SVt-thread is L1's second vCPU: it
// serves traps with L1's one hypervisor instance, whose platform acts
// through the main vCPU's port and so runs on the SVt-thread's while
// the main vCPU is parked in its blocked VMRESUME.
func (m *Machine) buildSWSVt() {
	vmcs01b := hv.NewVisorVMCS("vmcs01-svt", EPTP01, m.Cfg.Mode)
	h1 := m.L1HV
	m.SVtThread = &swsvt.SVtThread{H1: h1, VC12: m.VC12}
	m.SVtGuest = cpu.NewNativeGuest("L1-svt-thread", m.Core, 1, func(p *cpu.Port) {
		// L1's kernel is wired on the thread's first run, which a
		// reflection that falls back before the thread ever ran forces.
		p.IRQHandler = h1.HandleKernelIRQ
		if m.Cfg.WireL1 != nil {
			m.Cfg.WireL1(m, h1, p)
		}
		m.SVtThread.Body(p)
	})
	m.VcpuSVt = hv.NewVCPU("L1.vcpu1", 1, vmcs01b, m.SVtGuest, 1)
	m.VcpuSVt.Nested = m.Ns
	m.VcpuSVt.VirtLAPIC = m.Cfg.Port.NewIRQ(11, m.Eng)
	main, thread := m.L1Guest.Port(), m.SVtGuest.Port()
	thread.VirtLAPIC = m.VcpuSVt.VirtLAPIC
	main.Sibling, thread.Sibling = thread, main

	m.Chan = &swsvt.Channel{
		L0:              m.L0,
		Core:            m.Core,
		VcpuSVt:         m.VcpuSVt,
		VcpuL1Main:      m.VcpuL1,
		Ns:              m.Ns,
		ToSVt:           swsvt.NewRing(64),
		FromSVt:         swsvt.NewRing(64),
		Policy:          m.Cfg.WaitPolicy,
		Placement:       m.Cfg.Placement,
		BlockedProtocol: m.Cfg.BlockedProtocol,
	}
	m.Eng.AddProbe("swsvt-channel", m.Chan.ProbeState)
	m.SVtThread.Ch = m.Chan
	m.L0.SW = m.Chan

	if m.Obs != nil {
		m.Chan.SetObs(m.Obs.Tracer)
		m.VcpuSVt.VirtLAPIC.SetObs(m.Obs.Tracer, 1, "L1.vcpu1.apic")
		m.VcpuSVt.VirtLAPIC.Metrics(m.Obs.Metrics, "apic.l1-svt")
		reg := m.Obs.Metrics
		reg.RegisterCounter("swsvt.reflections", &m.Chan.Reflections)
		reg.RegisterCounter("swsvt.blocked_events", &m.Chan.BlockedEvents)
		reg.RegisterCounter("swsvt.watchdog_fires", &m.Chan.WatchdogFires)
		reg.RegisterCounter("swsvt.fallbacks", &m.Chan.Fallbacks)
		reg.RegisterCounter("swsvt.fallback_reflections", &m.Chan.FallbackReflections)
	}
}

// l1Body is the guest hypervisor: it configures its nested VM through
// genuinely trapping privileged operations and then runs the standard
// trap-and-emulate loop. In SW SVt mode that loop blocks in its first
// VMRESUME forever, with the SVt-thread serving all L2 traps (§5.2).
func (m *Machine) l1Body(p *cpu.Port) {
	h1 := m.L1HV
	p.IRQHandler = h1.HandleKernelIRQ
	if m.Cfg.Mode != hv.ModeSWSVt && m.Cfg.WireL1 != nil {
		m.Cfg.WireL1(m, h1, p)
	}

	// Boot-time configuration of the nested VM. The VMPTRLD and the
	// control/pointer writes trap into L0 (shadowing covers only plain
	// guest state).
	hv.BootNestedVM(h1.P.(*hv.VirtualPlatform), m.VC12, MSRBitmapGPA, EPTP12, 0x1000)

	h1.RunLoop(m.VC12)
}

// SetL2Workload installs the nested VM's workload program.
func (m *Machine) SetL2Workload(w cpu.ProgramGuest) {
	m.Ns.L2VCPU.Guest = w
}

// Run executes the machine until its workload reports done (or the
// simulation deadlocks): the L1 vCPU of a nested machine, the guest vCPU
// of a single-level one. Every guest body is released before Run
// returns, whether it returns or panics, so a finished machine holds no
// goroutine behind it.
func (m *Machine) Run() {
	defer m.Shutdown()
	vc := m.VcpuL1
	if vc == nil {
		vc = m.VcpuGuest
	}
	m.L0.RunLoop(vc)
}

// Shutdown unwinds any parked native-guest goroutines. Run already
// calls it; after Run it returns at once.
func (m *Machine) Shutdown() {
	if m.L1Guest != nil {
		m.L1Guest.Kill()
	}
	if m.SVtGuest != nil {
		m.SVtGuest.Kill()
	}
	if m.l2NativeGuest != nil {
		m.l2NativeGuest.Kill()
	}
}

// Now reports virtual time.
func (m *Machine) Now() sim.Time { return m.Eng.Now() }

// L2LAPIC returns the nested guest's virtual interrupt controller, nil
// before InstallL2 has run. Snapshot capture reaches it through this
// accessor: the controller hangs off the native guest's port, which the
// machine otherwise keeps private.
func (m *Machine) L2LAPIC() ports.IRQController {
	if m.l2NativeGuest == nil {
		return nil
	}
	return m.l2NativeGuest.Port().VirtLAPIC
}

// NewSingleLevel assembles an L0 + single guest machine (the paper's
// Figure 6 "L1" configuration).
func NewSingleLevel(cfg Config) *Machine {
	cfg.Mode = hv.ModeBaseline
	m := newBase(cfg, 1)
	v := hv.NewVisorVMCS("vmcs01", EPTP01, m.Cfg.Mode)
	m.VcpuGuest = hv.NewVCPU("L1.vcpu0", 0, v, nil, 1)
	m.VcpuGuest.VirtLAPIC = m.Cfg.Port.NewIRQ(10, m.Eng)
	if m.Obs != nil {
		m.VcpuGuest.VirtLAPIC.SetObs(m.Obs.Tracer, 0, "L1.vcpu0.apic")
		m.VcpuGuest.VirtLAPIC.Metrics(m.Obs.Metrics, "apic.l1")
	}
	if cfg.WireL0 != nil {
		cfg.WireL0(m)
	}
	return m
}

// SetGuestWorkload installs the single-level guest workload.
func (m *Machine) SetGuestWorkload(w cpu.ProgramGuest) { m.VcpuGuest.Guest = w }
