package check

import (
	"fmt"

	"svtsim/internal/cpu"
	"svtsim/internal/fault"
	"svtsim/internal/guest"
	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/machine"
	"svtsim/internal/netsim"
	"svtsim/internal/netstack"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/snapshot"
	"svtsim/internal/virtio"
	"svtsim/internal/words"
	"svtsim/internal/workload"
)

// ComparableExits are the exit reasons whose L1-visible multiset must
// match across modes: the architecturally unconditional traps plus the
// traps vmcs12 configures. Timing- and mode-owned reasons (HLT wakeups,
// external interrupts, VMX housekeeping, SVT_BLOCKED) are excluded — their
// counts legitimately differ between protocols.
var ComparableExits = []isa.ExitReason{
	isa.ExitCPUID,
	isa.ExitMSRRead,
	isa.ExitMSRWrite,
	isa.ExitAPICWrite,
	isa.ExitEPTMisconfig,
	isa.ExitVMCall,
}

// Outcome is everything a schedule run exposes to the equivalence oracle.
type Outcome struct {
	Mode hv.Mode
	// Completed is false when the run panicked, deadlocked, or the L2
	// body never reached its end.
	Completed bool
	// OpDigest folds the guest-visible result stream of every op: CPUID
	// register values, hypercall and RDMSR returns, virtio payload bytes,
	// timer/IPI delivery deltas.
	OpDigest uint64
	// MachineDigest is machine.StateDigest at end of run.
	MachineDigest uint64
	// IRQs counts interrupt deliveries into the L2 kernel, per vector.
	IRQs [256]uint64
	// Exits is the L1-visible exit multiset over ComparableExits: the
	// guest hypervisor's run-loop profile plus (under SW SVt) the exits
	// its SVt-thread serviced off the command ring.
	Exits [isa.NumExitReasons]uint64
	// Invariants lists DESIGN §6 violations observed at op boundaries.
	Invariants []string
	// Panic carries the recovered panic message, if any.
	Panic string
}

// RunOpts tweak a differential run.
type RunOpts struct {
	// Modes overrides hv.AllModes().
	Modes []hv.Mode
	// Port selects the architecture backend (nil = the default x86
	// port). Outcomes are only comparable within one port — ports
	// charge different costs, so the oracle checks mode-equivalence
	// per port, never across ports.
	Port ports.Port
	// Mutate runs against each freshly built machine before the workload
	// starts; tests use it to sabotage one mode (e.g. arm the
	// DropOwnedExit hook) and watch the oracle catch it.
	Mutate func(mode hv.Mode, m *machine.Machine)
	// Sabotage runs against each captured snapshot at every migrate point
	// before it is restored; tests use it to corrupt the image (e.g. drop
	// a virtqueue index with MutateWord) and watch the broken restore
	// diverge downstream where the oracle catches it.
	Sabotage func(mode hv.Mode, snap *snapshot.Snapshot)
}

func (o *RunOpts) modes() []hv.Mode {
	if o != nil && len(o.Modes) > 0 {
		return o.Modes
	}
	return hv.AllModes()
}

// maxInvariantReports bounds the violation list so a broken invariant in
// a hot loop cannot balloon outcomes.
const maxInvariantReports = 16

// RunSchedule executes one schedule under one mode on a fresh machine
// and collects its outcome. It never lets a panic escape: a crashed run
// is an outcome with Panic set, which the oracle treats as inequivalent
// to a completed one.
func RunSchedule(s *Schedule, mode hv.Mode, opts *RunOpts) Outcome {
	out := Outcome{Mode: mode}
	cfg := machine.DefaultConfig(mode)
	if opts != nil && opts.Port != nil {
		cfg.Port = opts.Port
		cfg.Costs = opts.Port.Costs()
	}
	cfg.Seed = s.Seed
	if s.WakeupDropRate > 0 {
		// Only the recoverable wakeup-drop site is armed: the watchdog
		// retries and the breaker's baseline fallback must hide it.
		cfg.Faults = &fault.Spec{Seed: s.Seed, Sites: []fault.SiteConfig{
			{Site: fault.SiteSVtWakeup, Rate: s.WakeupDropRate, Drop: true},
		}}
	}
	useIO := s.UsesNet() || s.UsesBlk()
	io := &machine.IOStack{}
	if useIO {
		io = machine.WireNestedIO(&cfg, machine.DefaultIOParams())
	}
	if s.Cores > 1 {
		// The guest hypervisor's kernel routes the cross-core vector on to
		// its nested VM, exactly like it routes its virtualized timer. In
		// SW-SVt mode the SVt-thread runs this wiring, on its first run.
		prevWireL1 := cfg.WireL1
		cfg.WireL1 = func(m *machine.Machine, h1 *hv.Hypervisor, port *cpu.Port) {
			if prevWireL1 != nil {
				prevWireL1(m, h1, port)
			}
			h1.VectorRoute[ports.VecIPI] = m.VC12
		}
	}
	m := machine.NewNested(cfg)
	if s.UsesNet() {
		// RespSize <= 0 echoes the request verbatim, so response payloads
		// feed end-to-end integrity into the digest.
		io.NIC.Peer = &netsim.EchoPeer{
			Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
			ServiceTime: 5 * sim.Microsecond,
		}
	}
	if s.usesKind(OpNetRR) {
		// Splice a peer-side netstack behind the NIC: segments demux to
		// it, everything else keeps riding the raw echo peer, so netping
		// frames and netrr flows share one conduit in the same run.
		wireNetRRPeer(m, io)
	}
	if opts != nil && opts.Mutate != nil {
		opts.Mutate(mode, m)
	}

	it := &interp{s: s, m: m, io: io, mode: mode, dig: words.FNVOffset}
	if s.Cores > 1 {
		// Graft a multi-core host onto the machine's engine: the guest
		// stack occupies core 0 and OpIPI becomes a genuine cross-core
		// IPI from the farthest core, crossing the apic plane with
		// cross-core latency before injection at the L1 boundary.
		topo := host.Topology{Sockets: 1, CoresPerSocket: s.Cores, ThreadsPerCore: 2}
		hst, err := host.NewOn(m.Eng, topo, cfg.Port)
		if err != nil {
			out.Panic = err.Error()
			return out
		}
		// Arrival lands on the machine's physical LAPIC and rides the
		// normal external-interrupt path, two levels of kernel routing
		// deep — L0 delivers to the guest hypervisor's serving vCPU, whose
		// kernel re-routes to the nested VM (the WireL1 hook above) — the
		// same chain the virtualized timer rides. Injecting into a virtual
		// LAPIC straight from event context would be invisible to the idle
		// loops, which only watch the physical interrupt plane.
		m.L0.VectorRoute[ports.VecIPI] = m.L1IRQTarget()
		// Only OpIPI's own send is routed into the machine: migration
		// reschedule kicks also land on ctx 0 (the guest stack's core)
		// and must be consumed by the host plane alone, or transparency
		// would depend on placement traffic.
		hst.OnIPI(0, func(vec int) {
			hst.LAPIC(0).Ack(vec)
			if it.expectIPI {
				m.Core.LAPIC(cpu.VisorContext).Deliver(vec)
			}
		})
		it.host = hst
		if len(s.Migrate) > 0 {
			// Admit the VM's gang to the scheduler so migrate points have
			// a placement to move: the vCPU plus, under SW-SVt, its
			// SVt-thread. The first admission deterministically lands the
			// fully idle core 0.
			a := hst.Sched.Admit(0, mode.Threads())
			it.assign = &a
			if opts != nil {
				it.sabotage = opts.Sabotage
			}
		}
	}
	m.InstallL2(io, s.UsesNet(), s.UsesBlk(), it.body)

	func() {
		defer func() {
			if r := recover(); r != nil {
				out.Panic = fmt.Sprint(r)
			}
		}()
		m.Run()
	}()

	out.Completed = out.Panic == "" && it.finished && !m.L0.DeadlockDetected
	out.OpDigest = it.dig
	out.IRQs = it.irqs
	out.MachineDigest = m.StateDigest()
	for _, r := range ComparableExits {
		n := m.L1HV.Prof.Count[r]
		if m.SVtThread != nil {
			n += m.SVtThread.HandledByReason[r]
		}
		out.Exits[r] = n
	}
	out.Invariants = it.invs
	for _, err := range m.CheckInvariants() {
		if len(out.Invariants) >= maxInvariantReports {
			break
		}
		out.Invariants = append(out.Invariants, "end: "+err.Error())
	}
	// Mode-conditional DESIGN §6 invariants: the SVt mechanisms must not
	// leak into modes that don't own them.
	st := &m.Core.Stats
	switch {
	case mode == hv.ModeBaseline:
		if st.StallResumes != 0 || st.CtxtAccesses != 0 {
			out.Invariants = append(out.Invariants, fmt.Sprintf(
				"end: baseline run used SVt hardware (stall-resumes=%d ctxt-accesses=%d)",
				st.StallResumes, st.CtxtAccesses))
		}
	case mode.HWSVt():
		if st.ThunkRegMoves != 0 {
			out.Invariants = append(out.Invariants, fmt.Sprintf(
				"end: HW SVt run thunked registers through memory (%d moves)", st.ThunkRegMoves))
		}
	}
	return out
}

// interp executes a schedule's ops inside the L2 guest body.
type interp struct {
	s    *Schedule
	m    *machine.Machine
	io   *machine.IOStack
	mode hv.Mode
	host *host.Host // non-nil when the schedule models >1 core

	// expectIPI gates the ctx-0 IPI arrival handler: only while OpIPI is
	// waiting for its own injected vector do host-plane IPIs cross into
	// the machine.
	expectIPI bool
	// assign is the VM's gang placement on the host scheduler; non-nil
	// only for schedules with migrate points.
	assign   *host.Assignment
	sabotage func(mode hv.Mode, snap *snapshot.Snapshot)

	dig      uint64
	blkBuf   [8 * 512]byte // every block op's data, up to 8 sectors
	irqs     [256]uint64
	netRecv  uint64
	invs     []string
	finished bool

	// OpNetRR's guest-side reliable flow, opened lazily on first use so
	// schedules without the op pay nothing.
	nstk  *netstack.Stack
	nflow *netstack.Flow
	nrrRx uint64 // echoed application bytes received so far
}

// netrrRTO is the retransmit timer for both netstack endpoints in a
// differential run. Segments cannot be lost here (the schedule fault
// plane never arms net/segment), so the timer — like the delayed-ACK
// timer derived from it — exists only as protocol state and must never
// fire: the guest-side stack may transmit solely from guest execution
// context, and a watchdog-stretched run under wakeup-drop faults can
// reach tens of virtual milliseconds. No run that makes progress comes
// near ten virtual seconds, but a stuck one idles until one of the two
// fires, and the trap its send takes from engine context fails the run
// with the engine's stall report.
const netrrRTO = 10 * sim.Second

// netrrPeer sits behind the NIC as its link endpoint and demuxes:
// netstack segments feed the peer-side stack, raw frames keep the
// existing echo-peer behavior.
type netrrPeer struct {
	echo, seg netsim.Endpoint
}

func (p *netrrPeer) Receive(pkt []byte) {
	if netstack.IsSegment(pkt) {
		p.seg.Receive(pkt)
		return
	}
	p.echo.Receive(pkt)
}

// netrrThink is the peer's per-segment service delay. It dominates any
// mode's nested interrupt-delivery latency, so the guest always retires
// its TX completion before the reply lands: the interrupt pattern — and
// with it the IRQ/exit multisets the oracle compares — is identical in
// every mode instead of depending on whether a slow mode's IRQ path
// lets the reply coalesce into the completion's service loop.
const netrrThink = 100 * sim.Microsecond

// wireNetRRPeer splices the segment demux in front of the echo peer
// and stands up the L0-side server stack: every passively opened flow
// echoes its payload bytes straight back.
func wireNetRRPeer(m *machine.Machine, io *machine.IOStack) {
	// The peer stack's wire: transmit rides the inbound link toward the
	// NIC after the think time, receive is fed by the demux.
	wire := &netsim.WireEnd{Out: io.LinkIn, Dst: io.NIC, Think: netrrThink}
	io.NIC.Peer = &netrrPeer{echo: io.NIC.Peer, seg: wire}
	st := netstack.New(m.Eng, wire, netstack.Params{RTO: netrrRTO, AckDelay: netrrRTO / 2})
	st.OnFlow = func(f *netstack.Flow) {
		f.OnData = func(b []byte) { f.Write(b) }
	}
}

func (it *interp) add(x uint64) { it.dig = words.FNVWord(it.dig, x) }

func (it *interp) addBytes(p []byte) { it.dig = words.FNVBytes(it.dig, p) }

func (it *interp) violate(where string, err error) {
	if len(it.invs) < maxInvariantReports {
		it.invs = append(it.invs, where+": "+err.Error())
	}
}

func (it *interp) body(env *guest.Env) {
	// Count every vector the L2 kernel handles; the delivered-interrupt
	// sets must agree across modes. InstallL2 already chained driver
	// dispatch + the trapped EOI — keep both running after the count.
	prev := env.Port.IRQHandler
	env.Port.IRQHandler = func(vec int) {
		if vec >= 0 && vec < 256 {
			it.irqs[vec]++
		}
		prev(vec)
	}
	if env.Net != nil {
		prevRecv := env.Net.OnReceive
		env.Net.OnReceive = func(pkt []byte) {
			it.netRecv++
			it.add(uint64(len(pkt)))
			it.addBytes(pkt)
			if prevRecv != nil {
				prevRecv(pkt)
			}
		}
	}
	for i, op := range it.s.Ops {
		it.add(uint64(i)<<8 | uint64(op.Kind))
		it.exec(env, op)
		it.boundary(env, i)
	}
	it.finished = true
}

// boundary runs the live invariant sweep between ops.
func (it *interp) boundary(env *guest.Env, i int) {
	where := fmt.Sprintf("op %d (%s)", i, it.s.Ops[i].Kind)
	for _, err := range it.m.CheckInvariants() {
		it.violate(where, err)
	}
	for _, q := range it.queues(env) {
		if err := q.CheckInvariants(); err != nil {
			it.violate(where, err)
		}
	}
	for _, pt := range it.s.Migrate {
		if pt.After == i {
			it.migrate(env, pt)
		}
	}
}

// queues lists every live virtqueue of the nested I/O stack: the driver
// side of L2's and L1's drivers, and the device side of all four
// backends.
func (it *interp) queues(env *guest.Env) []*virtio.Queue {
	var qs []*virtio.Queue
	if env.Net != nil {
		qs = append(qs, env.Net.TX, env.Net.RX)
	}
	if env.Blk != nil {
		qs = append(qs, env.Blk.Q)
	}
	io := it.io
	if io.L0Net == nil {
		return qs // the schedule does no I/O, so the stack is not wired
	}
	qs = append(qs, io.L1NetDrv.TX, io.L1NetDrv.RX, io.L1BlkDrv.Q)
	for _, dev := range []*virtio.DeviceCommon{&io.L1Net.DeviceCommon, &io.L1Blk.DeviceCommon,
		&io.L0Net.DeviceCommon, &io.L0Blk.DeviceCommon} {
		for i := 0; i < virtio.MaxQueues; i++ {
			if q := dev.Queue(i); q != nil {
				qs = append(qs, q)
			}
		}
	}
	return qs
}

// migrate executes one MigratePoint at an op boundary: the full state is
// captured, digest-verified through a restore round trip on the live
// machine, and the gang is live-migrated on the host scheduler, with the
// guest charged for the downtime. The charge exceeds the worst-case IPI
// latency, so the migration's reschedule kicks drain (as host-plane
// acks) before the next op runs.
func (it *interp) migrate(env *guest.Env, pt MigratePoint) {
	where := fmt.Sprintf("migrate after op %d", pt.After)
	snap := snapshot.Capture(it.m, it.io)
	if it.sabotage != nil {
		it.sabotage(it.mode, snap)
	}
	if err := snapshot.Restore(it.m, it.io, snap); err != nil {
		it.violate(where, err)
		return
	}
	if after := snapshot.Capture(it.m, it.io).Digest(); after != snap.Digest() {
		it.violate(where, fmt.Errorf(
			"snapshot round trip not digest-stable: %#016x -> %#016x", snap.Digest(), after))
	}
	if it.host == nil || it.assign == nil {
		return
	}
	// Bounce the gang between core 0 and the farthest core: an SMT
	// sibling pair at the destination, mirroring Admit's preference.
	t := it.host.Topo
	dstCore := 0
	if t.CoreOf(it.assign.Ctxs[0]) == 0 {
		dstCore = t.Cores() - 1
	}
	dst := make([]host.CtxID, len(it.assign.Ctxs))
	for i := range dst {
		dst[i] = host.CtxID(dstCore*t.ThreadsPerCore + i)
	}
	res := it.host.Sched.MigrateGang(it.assign, dst, snap.Bytes(), pt.Fails)
	env.Port.Charge(res.Downtime)
}

func (it *interp) exec(env *guest.Env, op Op) {
	switch op.Kind {
	case OpCPUID:
		n := 1 + int(op.A%8)
		base := uint32(op.B % 1024)
		core, ctx := env.Port.Core(), env.Port.Ctx
		for j := 0; j < n; j++ {
			it.add(env.Port.Exec(isa.CPUID(base + uint32(j))))
			it.add(core.ReadGPR(ctx, isa.RBX))
			it.add(core.ReadGPR(ctx, isa.RCX))
			it.add(core.ReadGPR(ctx, isa.RDX))
		}

	case OpHypercall:
		// Qualifications 0x100.. stay clear of the protocol quals
		// (guest-done, thread pairing) the hypervisors interpret.
		qual := 0x100 + op.A%64
		it.add(env.Port.Exec(isa.Instr{Op: isa.OpVMCall, Val: qual}))

	case OpMSR:
		val := op.A<<16 ^ op.B ^ 0x1CB
		env.Port.Exec(isa.WRMSR(isa.MSRX2APICICR, val))
		it.add(env.Port.Exec(isa.RDMSR(isa.MSRX2APICICR)))

	case OpCompute:
		env.Compute(sim.Time(1 + op.A%4096))

	case OpTimer:
		t := env.Timer
		before := t.Fired()
		t.Arm(env.Now() + sim.Time(1+op.A%50)*sim.Microsecond)
		// Wait for the actual delivery, not just the deadline: the fire
		// reaches the L2 kernel through a mode-dependent number of
		// boundaries, and the delivered count must not race guest-done.
		env.WaitFor(func() bool { return t.Fired() > before })
		it.add(t.Fired() - before)

	case OpNetPing:
		want := it.netRecv + 1
		pkt := make([]byte, 1+op.A%256)
		for i := range pkt {
			pkt[i] = byte(op.B + uint64(i)*7)
		}
		env.Net.Send(pkt, func() {})
		env.WaitFor(func() bool { return it.netRecv >= want })

	case OpBlkRead:
		data := it.blkBuf[:int(1+op.B%8)*512]
		ok := env.Blk.Read(op.A%4096, data)
		it.add(boolWord(ok))
		if ok {
			it.addBytes(data)
		}

	case OpBlkWrite:
		data := it.blkBuf[:int(1+op.B%8)*512]
		for i := range data {
			data[i] = byte(op.A + uint64(i)*13)
		}
		it.add(boolWord(env.Blk.Write(op.A%4096, data)))

	case OpIPI:
		before := it.irqs[ports.VecIPI]
		if it.host != nil {
			// The farthest core sends a real cross-core IPI; its arrival
			// at core 0's LAPIC injects at the L1 boundary.
			it.expectIPI = true
			from := it.host.Topo.Ctx(0, it.s.Cores-1, 0)
			it.host.SendIPI(from, 0, ports.VecIPI)
			env.WaitFor(func() bool { return it.irqs[ports.VecIPI] > before })
			it.expectIPI = false
		} else {
			it.m.L1HV.InjectIRQ(it.m.VC12, ports.VecIPI)
			env.WaitFor(func() bool { return it.irqs[ports.VecIPI] > before })
		}
		it.add(it.irqs[ports.VecIPI] - before)

	case OpSMPWake:
		workload.SMPWake(env)
		it.add(1)

	case OpNetRR:
		if it.nstk == nil {
			it.nstk = netstack.New(it.m.Eng, env.Net,
				netstack.Params{RTO: netrrRTO, AckDelay: netrrRTO / 2})
			it.nflow = it.nstk.Open(1)
			it.nflow.OnData = func(b []byte) {
				// The echoed bytes are the guest-visible quantity the
				// oracle compares: every mode must deliver the exact
				// stream (the raw segments also hash in through the
				// OnReceive tap, pinning the wire format too).
				it.nrrRx += uint64(len(b))
				it.addBytes(b)
			}
		}
		n := 1 + int(op.A%4)
		size := 1 + int(op.B%128)
		for j := 0; j < n; j++ {
			req := make([]byte, size)
			for i := range req {
				req[i] = byte(op.B + uint64(j)*31 + uint64(i)*11)
			}
			want := it.nrrRx + uint64(size)
			it.nflow.Write(req)
			env.WaitFor(func() bool { return it.nrrRx >= want })
		}
		it.add(it.nrrRx)
	}
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
