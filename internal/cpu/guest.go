package cpu

import (
	"fmt"

	"svtsim/internal/isa"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/vmcs"
)

// ActionKind discriminates guest program actions.
type ActionKind uint8

// Action kinds.
const (
	ActCompute ActionKind = iota // untrapped work for Dur
	ActInstr                     // execute Instr (may trap)
	ActDone                      // workload finished
)

// Action is the next architectural step a guest program takes.
type Action struct {
	Kind  ActionKind
	Dur   sim.Time
	Instr isa.Instr
}

// Guest is anything that can receive injected interrupts.
type Guest interface {
	DeliverIRQ(vec int)
}

// ProgramGuest is a state-machine guest: the core pulls actions from it.
// End-user VMs (L2 workloads) are program guests.
type ProgramGuest interface {
	Guest
	Step() Action
}

// RunState carries execution state that survives VM exits, so an
// interrupted compute block resumes where it stopped.
type RunState struct {
	ComputeLeft sim.Time
}

// physIRQExit builds the EXTERNAL_INTERRUPT exit if the context's
// physical LAPIC has a pending vector and the VMCS asks for
// external-interrupt exiting; ok reports whether it did.
func (c *Core) physIRQExit(ctx ContextID, v *vmcs.VMCS) (e isa.Exit, ok bool) {
	l := c.lapics[c.IRQContext(ctx)]
	if l == nil || !l.HasPending() {
		return e, false
	}
	if v.Read(vmcs.PinControls)&vmcs.PinCtlExtIntExit == 0 {
		return e, false
	}
	vec, _ := l.PendingVector()
	return isa.Exit{Reason: isa.ExitExternalInterrupt, Vector: vec}, true
}

// RunGuest enters the guest on ctx under v and executes it until a VM
// exit, which it returns. This is the hardware side of VMRESUME: the
// paper's hypervisors sit in a loop of RunGuest + handle. A program
// guest needs its vCPU's rs; a native guest ignores it.
func (c *Core) RunGuest(ctx ContextID, v *vmcs.VMCS, g Guest, rs *RunState) isa.Exit {
	if ng, ok := g.(*NativeGuest); ok {
		return c.runNative(ctx, v, ng)
	}
	return c.runProgram(ctx, v, g.(ProgramGuest), rs)
}

func (c *Core) runProgram(ctx ContextID, v *vmcs.VMCS, g ProgramGuest, rs *RunState) isa.Exit {
	c.enterGuest(ctx, v, g)
	for {
		c.Eng.DispatchDue()
		if e, ok := c.physIRQExit(ctx, v); ok {
			return c.exitGuest(ctx, v, e)
		}
		if rs.ComputeLeft > 0 {
			c.runCompute(rs)
			continue
		}
		act := g.Step()
		switch act.Kind {
		case ActCompute:
			rs.ComputeLeft = act.Dur
		case ActDone:
			return c.exitGuest(ctx, v, isa.Exit{Reason: isa.ExitVMCall, Qualification: QualGuestDone})
		case ActInstr:
			res := c.Exec(ctx, v, act.Instr)
			if res.Exited() {
				return c.exitGuest(ctx, v, res.Exit)
			}
		}
	}
}

// runCompute advances an in-progress compute block, stopping at the next
// pending event so interrupts get a chance to exit the guest.
func (c *Core) runCompute(rs *RunState) {
	for rs.ComputeLeft > 0 {
		d := rs.ComputeLeft
		if t, ok := c.Eng.NextEventTime(); ok {
			if gap := t - c.Eng.Now(); gap < d {
				d = gap
			}
		}
		if d > 0 {
			c.Eng.Advance(d)
			rs.ComputeLeft -= d
		}
		if c.Eng.DispatchDue() > 0 {
			return // let the caller re-check interrupt state
		}
	}
}

type resumeMsg struct{ kill bool }

type killSentinel struct{}

// NativeGuest runs real Go code — a guest hypervisor's handler logic — on
// its own goroutine, with strict one-at-a-time handoff to the simulation:
// the code performs architectural actions through its Port, and any
// trapping instruction parks the goroutine and surfaces the VM exit to
// whoever executed VMRESUME. This is how the same hypervisor
// implementation runs both as L0 (on the real platform) and as L1 (on a
// virtualized platform whose privileged operations genuinely trap).
type NativeGuest struct {
	Name string

	body       func(*Port)
	port       *Port
	started    bool
	parkedIdle bool
	// running is true while the body holds the handoff: from RunGuest
	// resuming it until it traps. Only the running body may trap.
	running bool
	// panicked carries a body panic over to the RunGuest caller.
	panicked any

	resume chan resumeMsg
	yield  chan isa.Exit
}

// NewNativeGuest creates a native guest bound to context ctx of core c.
// Configure the returned guest's Port (virtual LAPIC, IRQ handler) before
// the first RunGuest.
func NewNativeGuest(name string, c *Core, ctx ContextID, body func(*Port)) *NativeGuest {
	g := &NativeGuest{
		Name:   name,
		body:   body,
		resume: make(chan resumeMsg),
		yield:  make(chan isa.Exit),
	}
	g.port = &Port{core: c, guest: g, Ctx: ctx}
	return g
}

// Port returns the guest's architectural port.
func (g *NativeGuest) Port() *Port { return g.port }

// DeliverIRQ delivers an injected vector to the guest's virtual LAPIC;
// the guest's kernel handler runs at its next instruction boundary. The
// vector comes from the VMCS entry-interruption field, so it bypasses
// the fault plane: it already survived its interconnect hop.
func (g *NativeGuest) DeliverIRQ(vec int) {
	if g.port.VirtLAPIC != nil {
		g.port.VirtLAPIC.DeliverDirect(vec)
	}
}

// Kill unwinds a native guest's goroutine and waits until it is gone. A
// guest that is not running is parked on resume: every yield has a
// receiver, because RunGuest waits for it. A guest that has finished, or
// is about to, exits on its own. It is a no-op for guests that never
// started.
func (g *NativeGuest) Kill() {
	if !g.started {
		return
	}
	select {
	case g.resume <- resumeMsg{kill: true}:
	case <-g.port.dead:
	}
	<-g.port.dead
}

func (c *Core) runNative(ctx ContextID, v *vmcs.VMCS, g *NativeGuest) isa.Exit {
	c.enterGuest(ctx, v, g)
	g.port.VM = v
	g.running = true
	if !g.started {
		g.started = true
		g.port.dead = make(chan struct{})
		go func() {
			defer close(g.port.dead)
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(killSentinel); ok {
						return
					}
					// The caller of RunGuest is blocked on yield:
					// re-raise there, so the panic fails one run
					// instead of the process.
					g.panicked = r
					g.yield <- isa.Exit{}
				}
			}()
			g.body(g.port)
			g.yield <- isa.Exit{Reason: isa.ExitVMCall, Qualification: QualGuestDone}
		}()
	} else {
		g.resume <- resumeMsg{}
	}
	e := <-g.yield
	g.running = false
	if g.panicked != nil {
		panic(g.panicked)
	}
	return c.exitGuest(ctx, v, e)
}

// Port is the architectural interface native guest code uses: execute
// instructions (which may trap), charge compute time, and receive virtual
// interrupts.
type Port struct {
	core  *Core
	guest *NativeGuest
	Ctx   ContextID
	VM    *vmcs.VMCS // controlling VMCS of the current session

	// VirtLAPIC is the guest's virtual interrupt controller; vectors
	// injected by the hypervisor land here.
	VirtLAPIC ports.IRQController
	// IRQHandler, when set, is the guest kernel's interrupt entry point; it
	// runs natively at instruction boundaries for each pending vector.
	IRQHandler func(vec int)
	// Sibling, when set, is another vCPU of the same guest kernel. While
	// this port's body is parked and the sibling's holds the handoff,
	// Exec, Compute, ExecHLT and PollIRQs run on the sibling: the kernel
	// acts on whichever of its vCPUs is running.
	Sibling *Port

	inIRQ bool
	dead  chan struct{}
}

// Park models the monitor/mwait wait of the SW SVt prototype: the thread
// stays in guest mode and stops fetching until woken. Control returns to
// the driver with a QualSVtIdle marker; no transition costs are charged
// (mwait keeps the SMT thread from consuming execution cycles — the whole
// point of §6.1's channel study).
func (p *Port) Park() {
	p.guest.parkedIdle = true
	p.trap(isa.Exit{Reason: isa.ExitVMCall, Qualification: QualSVtIdle})
	p.guest.parkedIdle = false
}

// Core returns the core the port executes on.
func (p *Port) Core() *Core { return p.core }

// Now reports virtual time.
func (p *Port) Now() sim.Time { return p.core.Eng.Now() }

// Charge accounts native compute work.
func (p *Port) Charge(d sim.Time) { p.core.Eng.Advance(d) }

// pollVirtIRQ runs the guest kernel's handler for any pending virtual
// vectors (instruction-boundary delivery).
func (p *Port) pollVirtIRQ() {
	if p.inIRQ || p.VirtLAPIC == nil || p.IRQHandler == nil {
		return
	}
	for {
		vec, ok := p.VirtLAPIC.PendingVector()
		if !ok {
			return
		}
		p.VirtLAPIC.Ack(vec)
		p.inIRQ = true
		p.core.Eng.Advance(p.core.Costs.GuestIRQHandler)
		p.IRQHandler(vec)
		p.inIRQ = false
	}
}

// on returns the port an action runs on: p, or its sibling while p's
// body is parked and the sibling's holds the handoff. A parked sibling
// is never the target, so two parked siblings cannot forward to each
// other, and an action with neither body running stays on p.
func (p *Port) on() *Port {
	if s := p.Sibling; s != nil && !p.guest.running && s.guest.running {
		return s
	}
	return p
}

// PollIRQs forces virtual-interrupt delivery at the current point, as the
// kernel would on an sti/hlt boundary.
func (p *Port) PollIRQs() { p.on().pollVirtIRQ() }

// Compute charges d of guest work interruptibly: pending events fire on
// schedule, physical interrupts exit the guest mid-block (and the block
// resumes after re-entry), and virtual vectors run their handlers at the
// interruption points. Long-running guest code (video decoding, request
// processing) uses this instead of Charge so timer accuracy is preserved.
func (p *Port) Compute(d sim.Time) {
	p = p.on()
	eng := p.core.Eng
	for d > 0 {
		chunk := d
		if t, ok := eng.NextEventTime(); ok {
			if gap := t - eng.Now(); gap < chunk {
				chunk = gap
			}
		}
		if chunk > 0 {
			eng.Advance(chunk)
			d -= chunk
		}
		// chunk is 0 only with an event due now, which this dispatches.
		eng.DispatchDue()
		if e, ok := p.core.physIRQExit(p.Ctx, p.VM); ok {
			p.trap(e)
		}
		p.pollVirtIRQ()
	}
}

// ExecHLT executes a HLT with architectural wakeup semantics: pending
// virtual interrupts (including ones injected during the prologue's own
// external-interrupt trap) make the HLT complete immediately instead of
// sleeping — closing the classic lost-wakeup race between polling and
// halting.
func (p *Port) ExecHLT() {
	p = p.on()
	p.core.Eng.DispatchDue()
	if e, ok := p.core.physIRQExit(p.Ctx, p.VM); ok {
		p.trap(e)
	}
	if p.VirtLAPIC != nil && p.VirtLAPIC.HasPending() {
		return
	}
	res := p.core.Exec(p.Ctx, p.VM, isa.HLT())
	if res.Exited() {
		p.trap(res.Exit)
	}
}

// Exec executes one instruction on behalf of the native guest. Trapping
// instructions park the goroutine until the hypervisor resumes the guest;
// the emulation result is then read from the guest's RAX per the
// hypervisor call convention.
func (p *Port) Exec(in isa.Instr) uint64 {
	p = p.on()
	p.core.Eng.DispatchDue()
	p.pollVirtIRQ()
	if e, ok := p.core.physIRQExit(p.Ctx, p.VM); ok {
		p.trap(e)
	}
	res := p.core.Exec(p.Ctx, p.VM, in)
	if res.Exited() {
		p.trap(res.Exit)
		return p.core.ReadGPR(p.Ctx, isa.RAX)
	}
	return res.Value
}

// trap parks the goroutine, surfacing e as the VM exit of the current
// RunGuest session.
func (p *Port) trap(e isa.Exit) {
	if !p.guest.running {
		// Nobody is waiting for this exit: blocking would hang the
		// simulation, so fail loudly with the culprit named and the
		// engine's report of where the run stood.
		panic(p.core.Eng.Report(fmt.Sprintf("cpu: %s traps (exit %v) while its body is not running: a guest-side action was called from engine context",
			p.guest.Name, e.Reason)).String())
	}
	p.guest.yield <- e
	msg := <-p.guest.resume
	if msg.kill {
		panic(killSentinel{})
	}
}
