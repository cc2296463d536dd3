package machine

import (
	"fmt"

	"svtsim/internal/blk"
	"svtsim/internal/cpu"
	"svtsim/internal/ept"
	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/netsim"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/virtio"
)

// Host-side interrupt vectors (MSIs of the physical devices).
const (
	HostNetVec = 0x40
	HostBlkVec = 0x41
)

// Guest-physical layout constants for the guests' internal structures.
const (
	l1ArenaBase = 2 << 20
	l1ArenaSize = 10 << 20
	l1NetLayout = 12 << 20
	l1BlkLayout = 13 << 20
	l2NetLayout = 1 << 20
	l2BlkLayout = 1536 * 1024
	l2ArenaBase = 4 << 20
	l2ArenaSize = 24 << 20
)

// IOParams are the tunable substrate parameters of the I/O stack.
type IOParams struct {
	LinkLatency sim.Time // one-way wire + switch latency
	LinkRate    float64  // bits per second
	DiskSize    uint64
}

// DefaultIOParams models the testbed: Intel X540 10 GbE and a
// tmpfs-backed disk image.
func DefaultIOParams() IOParams {
	return IOParams{
		LinkLatency: 5 * sim.Microsecond,
		LinkRate:    10e9,
		DiskSize:    1 << 30,
	}
}

// IOStack is the assembled I/O plumbing of a nested machine.
type IOStack struct {
	// Physical substrate.
	LinkOut *netsim.Link // NIC -> peer
	LinkIn  *netsim.Link // peer -> NIC
	NIC     *netsim.NIC
	Disk    *blk.Disk

	// Host hypervisor backends (L1's devices).
	L0Net *virtio.NetBackend
	L0Blk *virtio.BlkBackend

	// Guest hypervisor (vhost) backends for L2's devices.
	L1Net *virtio.NetBackend
	L1Blk *virtio.BlkBackend

	// Guest-side environments and drivers, populated as the stack boots.
	L1NetDrv *guest.NetDriver
	L1BlkDrv *guest.BlkDriver

	L2Env *guest.Env

	l1NetTxCoalesce int
}

// SetL1NetTxCoalesce configures TX interrupt coalescing on the guest
// hypervisor's vhost-net backend. It must be called before L1 boots,
// which applies it.
func (io *IOStack) SetL1NetTxCoalesce(n int) { io.l1NetTxCoalesce = n }

// l2View resolves L2 guest-physical addresses through the composed
// shadow EPT, which exists only once L1 has installed its EPT pointer.
type l2View struct{ m *Machine }

func (v l2View) view() *ept.View {
	if v.m.Ept02 == nil {
		panic("machine: L2 memory accessed before the shadow EPT exists")
	}
	return ept.NewView(v.m.HostMem, v.m.Ept02)
}

func (v l2View) Read(gpa uint64, p []byte) error              { return v.view().Read(gpa, p) }
func (v l2View) Write(gpa uint64, p []byte) error             { return v.view().Write(gpa, p) }
func (v l2View) Probe(gpa uint64, n uint32, write bool) error { return v.view().Probe(gpa, n, write) }

// L1IRQTarget is the L1 vCPU that receives L1-bound interrupts: the
// SVt-thread vCPU in SW SVt mode (the main vCPU is occupied running L2),
// the main vCPU otherwise.
func (m *Machine) L1IRQTarget() *hv.VCPU {
	if m.VcpuSVt != nil {
		return m.VcpuSVt
	}
	return m.VcpuL1
}

// WireNestedIO installs the full I/O stack into cfg; the returned IOStack
// is populated during machine construction and guest boot.
func WireNestedIO(cfg *Config, p IOParams) *IOStack {
	io := &IOStack{}

	cfg.WireL0 = func(m *Machine) {
		eng := m.Eng
		io.LinkOut = netsim.NewLink(eng, p.LinkLatency, p.LinkRate)
		io.LinkIn = netsim.NewLink(eng, p.LinkLatency, p.LinkRate)
		io.NIC = netsim.NewNIC(eng, io.LinkOut)
		io.Disk = blk.NewDisk(eng, "l1-image", p.DiskSize)

		view01 := ept.NewView(m.HostMem, m.Ept01)
		io.L0Net = virtio.NewNetBackend("l0-virtio-net", L1NetMMIO, view01, io.NIC)
		io.L0Net.Eng = eng
		io.L0Net.NotifyHost = func() { m.Core.LAPIC(cpu.VisorContext).Deliver(HostNetVec) }
		io.L0Net.RaiseGuestIRQ = func() { m.L0.InjectIRQ(m.L1IRQTarget(), ports.VecVirtioNet) }
		m.L0.Devices[DevL1Net] = io.L0Net
		m.L0.VectorToDevice[HostNetVec] = io.L0Net

		io.L0Blk = virtio.NewBlkBackend("l0-virtio-blk", L1BlkMMIO, view01, io.Disk)
		io.L0Blk.Eng = eng
		io.L0Blk.NotifyHost = func() { m.Core.LAPIC(cpu.VisorContext).Deliver(HostBlkVec) }
		io.L0Blk.RaiseGuestIRQ = func() { m.L0.InjectIRQ(m.L1IRQTarget(), ports.VecVirtioBlk) }
		m.L0.Devices[DevL1Blk] = io.L0Blk
		m.L0.VectorToDevice[HostBlkVec] = io.L0Blk

		if m.Obs != nil {
			tr, dt := m.Obs.Tracer, m.Obs.Tracer.DeviceTrack()
			io.L0Net.SetObs(tr, dt)
			io.L0Blk.SetObs(tr, dt)
			io.Disk.SetObs(tr, dt)
			reg := m.Obs.Metrics
			reg.RegisterFunc("io.disk.reads", func() float64 { return float64(io.Disk.Reads) })
			reg.RegisterFunc("io.disk.writes", func() float64 { return float64(io.Disk.Writes) })
			reg.RegisterFunc("io.disk.errors", func() float64 { return float64(io.Disk.Errors) })
			reg.RegisterFunc("io.l0net.kicks", func() float64 { return float64(io.L0Net.Kicks) })
			reg.RegisterFunc("io.l0blk.kicks", func() float64 { return float64(io.L0Blk.Kicks) })
		}
	}

	cfg.WireL1 = func(m *Machine, h1 *hv.Hypervisor, port *cpu.Port) {
		// The guest hypervisor's kernel: its own drivers plus the vhost
		// backends that serve L2's devices through them.
		view01 := ept.NewView(m.HostMem, m.Ept01)
		env1 := guest.NewEnv(port, view01, l1ArenaBase, l1ArenaSize)

		nd, err := guest.NewNetDriver(env1, ports.VecVirtioNet, L1NetMMIO, l1NetLayout)
		if err != nil {
			panic(fmt.Sprintf("machine: L1 net driver: %v", err))
		}
		io.L1NetDrv = nd
		bd, err := guest.NewBlkDriver(env1, ports.VecVirtioBlk, L1BlkMMIO, l1BlkLayout)
		if err != nil {
			panic(fmt.Sprintf("machine: L1 blk driver: %v", err))
		}
		io.L1BlkDrv = bd

		l2mem := l2View{m}
		io.L1Net = virtio.NewNetBackend("l1-vhost-net", L2NetMMIO, l2mem, nd)
		// Completion work at L1 happens synchronously in L1's kernel
		// context (the driver interrupt already runs there).
		io.L1Net.Eng = m.Eng
		io.L1Net.TxCoalesce = io.l1NetTxCoalesce
		io.L1Net.NotifyHost = func() { io.L1Net.OnIRQ() }
		io.L1Net.RaiseGuestIRQ = func() { h1.InjectIRQ(m.VC12, ports.VecVirtioNet) }
		h1.Devices[DevL2Net] = io.L1Net

		io.L1Blk = virtio.NewBlkBackend("l1-vhost-blk", L2BlkMMIO, l2mem, bd.AsTransport())
		io.L1Blk.Eng = m.Eng
		io.L1Blk.NotifyHost = func() { io.L1Blk.OnIRQ() }
		io.L1Blk.RaiseGuestIRQ = func() { h1.InjectIRQ(m.VC12, ports.VecVirtioBlk) }
		h1.Devices[DevL2Blk] = io.L1Blk

		if m.Obs != nil {
			tr, dt := m.Obs.Tracer, m.Obs.Tracer.DeviceTrack()
			io.L1Net.SetObs(tr, dt)
			io.L1Blk.SetObs(tr, dt)
			reg := m.Obs.Metrics
			reg.RegisterFunc("io.l1net.kicks", func() float64 { return float64(io.L1Net.Kicks) })
			reg.RegisterFunc("io.l1blk.kicks", func() float64 { return float64(io.L1Blk.Kicks) })
		}

		// Kernel interrupt dispatch: drivers first, hypervisor routing next.
		drvDispatch := env1.IRQDispatch()
		port.IRQHandler = func(vec int) {
			drvDispatch(vec)
			h1.HandleKernelIRQ(vec)
		}
	}

	return io
}

// L2Body is an L2 workload: plain Go code over the guest environment.
type L2Body func(env *guest.Env)

// InstallL2 wraps body as the nested VM's native guest, with a guest
// environment over L2's memory, virtio drivers, a timer, and kernel
// interrupt dispatch (including the trapped x2APIC EOI after every
// handled vector, which L1's hypervisor traps — one of the reflected
// exits on every nested interrupt path).
func (m *Machine) InstallL2(io *IOStack, withNet, withBlk bool, body L2Body) {
	l2guest := cpu.NewNativeGuest("L2", m.Core, m.Ns.L2VCPU.Ctx, func(p *cpu.Port) {
		env := guest.NewEnv(p, l2View{m}, l2ArenaBase, l2ArenaSize)
		io.L2Env = env
		guest.NewTimerDriver(env, ports.VecTimer)
		if withNet {
			if _, err := guest.NewNetDriver(env, ports.VecVirtioNet, L2NetMMIO, l2NetLayout); err != nil {
				panic(fmt.Sprintf("machine: L2 net driver: %v", err))
			}
		}
		if withBlk {
			if _, err := guest.NewBlkDriver(env, ports.VecVirtioBlk, L2BlkMMIO, l2BlkLayout); err != nil {
				panic(fmt.Sprintf("machine: L2 blk driver: %v", err))
			}
		}
		dispatch := env.IRQDispatch()
		p.IRQHandler = func(vec int) {
			dispatch(vec)
			// x2APIC EOI: trapped by the guest hypervisor for its nested VM.
			p.Exec(isa.WRMSR(isa.MSRX2APICEOI, 0))
		}
		body(env)
	})
	l2lapic := m.Cfg.Port.NewIRQ(200, m.Eng)
	if m.Obs != nil {
		l2lapic.SetObs(m.Obs.Tracer, int(m.Ns.L2VCPU.Ctx), "L2.apic")
		l2lapic.Metrics(m.Obs.Metrics, "apic.l2")
	}
	l2guest.Port().VirtLAPIC = l2lapic
	m.Ns.L2VCPU.Guest = l2guest
	m.l2NativeGuest = l2guest
}
