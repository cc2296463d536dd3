package swsvt

import (
	"fmt"

	"svtsim/internal/cpu"
	"svtsim/internal/fault"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/obs"
	"svtsim/internal/sim"
)

// Channel is the SW SVt reflection path (Figure 5): it implements
// hv.SWChannel for the L0 hypervisor. When a nested exit belongs to L1,
// L0₀ pushes CMD_VM_TRAP (with the register payload) onto the ring, the
// SVt-thread on the sibling SMT context wakes, handles the trap using the
// pre-existing L1 handler code, answers CMD_VM_RESUME, and L0₀ — which
// was itself mwaiting on the response ring — resumes L2 directly.
//
// The channel charges virtual time and consults the fault plane through
// Core's engine and prices its steps from Core's cost model; with no
// injector registered on the engine the fault consults are free, so a
// healthy run charges exactly what it did before the plane existed.
type Channel struct {
	L0   *hv.Hypervisor
	Core *cpu.Core

	// VcpuSVt is L0's vCPU record for L1's SVt-thread (vCPU 1 of the L1
	// VM, pinned to the sibling hardware context).
	VcpuSVt *hv.VCPU
	// VcpuL1Main is L0's vCPU record for L1's main vCPU (needed by the
	// §5.3 deadlock-avoidance protocol).
	VcpuL1Main *hv.VCPU
	// Ns is the nested state of the L2 VM the channel serves.
	Ns *hv.NestedState

	ToSVt   *Ring // L0₀ → SVt-thread (CMD_VM_TRAP)
	FromSVt *Ring // SVt-thread → L0₀ (CMD_VM_RESUME)

	Policy    Policy
	Placement Placement

	// BlockedProtocol enables the §5.3 SVT_BLOCKED interrupt-deadlock
	// avoidance: while waiting for CMD_VM_RESUME, L0₀ checks for
	// interrupts destined to the (blocked) L1 main vCPU and lets it run
	// its handler.
	BlockedProtocol bool

	// breaker guards the fast path. Only L1's main vCPU reflects, so one
	// breaker serves the channel; it is built on the first reflection.
	breaker *fault.Breaker

	// Stats (obs counters so the observability registry can export the
	// live values; read them with .Value()).
	Reflections   obs.Counter
	BlockedEvents obs.Counter
	// WatchdogFires counts watchdog expiries (lost wakeups, stalled
	// pushes, spurious pops that had to be retried).
	WatchdogFires obs.Counter
	// Fallbacks counts reflections abandoned after the watchdog
	// exhausted its retries; the exit was re-handled on the baseline
	// trap/resume path.
	Fallbacks obs.Counter
	// FallbackReflections counts reflections short-circuited to the
	// baseline path by an open breaker (no SW-SVt attempt at all).
	FallbackReflections obs.Counter
	lastReturn          sim.Time
	stopped             bool
	booted              bool // the SVt-thread has run (wired L1's devices)

	// Obs, when non-nil, receives reflection-protocol events: ring
	// push/pop instants and the mwait-wake span, keyed to the hardware
	// contexts the protocol actually runs on.
	Obs        *obs.Tracer
	labToSVt   obs.Label
	labFromSVt obs.Label
}

// SetObs attaches the observability tracer (nil detaches) and interns
// the ring labels once so the emit paths stay allocation-free.
func (ch *Channel) SetObs(t *obs.Tracer) {
	ch.Obs = t
	ch.labToSVt = t.Intern("to-svt")
	ch.labFromSVt = t.Intern("from-svt")
}

var _ hv.SWChannel = (*Channel)(nil)

// The ring watchdog: how long L0₀ waits for the SVt-thread before
// re-sending a wakeup — a 10us base (comfortably above any healthy
// reflection round-trip, which is under 2us), doubling per retry up to
// 1ms — and how many retries it gets before a reflection gives up and
// falls back; a reflection makes watchdogRetries+1 attempts in all.
const (
	watchdogTimeout    = 10 * sim.Microsecond
	watchdogMaxTimeout = sim.Millisecond
	watchdogRetries    = 3
)

// watchdogWait reports the wait budget for the given zero-based attempt,
// doubling per attempt and clamped to watchdogMaxTimeout.
func watchdogWait(attempt int) sim.Time {
	t := watchdogTimeout
	for i := 0; i < attempt; i++ {
		t *= 2
		if t >= watchdogMaxTimeout {
			return watchdogMaxTimeout
		}
	}
	return t
}

// breakerThreshold consecutive watchdog exhaustions trip the channel's
// breaker, which routes reflections to baseline trap/resume until
// breakerCooldown of virtual time has passed.
const (
	breakerThreshold = 3
	breakerCooldown  = 200 * sim.Microsecond
)

func (ch *Channel) now() sim.Time { return ch.L0.P.Now() }

// watchdog runs one step of the ring protocol under the ring watchdog.
// Each attempt consults site, charges any injected delay and, unless
// the consult dropped it, tries the step. A drop or a failed try is a
// watchdog expiry: it is counted and charged the backed-off wait, and
// the step is retried until attempt limit has expired. It reports
// whether a try succeeded. Both sides of the channel run on Core, so
// charging its engine is charging L0₀ and the SVt-thread alike.
func (ch *Channel) watchdog(site string, limit int, try func() bool) bool {
	eng := ch.Core.Eng
	for attempt := 0; ; attempt++ {
		out := eng.Inject(site)
		if out.Delay > 0 {
			eng.Advance(out.Delay)
		}
		if !out.Drop && try() {
			return true
		}
		ch.WatchdogFires.Inc()
		eng.Advance(watchdogWait(attempt))
		if attempt >= limit {
			return false
		}
	}
}

// proceed is the try of a watchdog step that only a fault can stall.
func proceed() bool { return true }

// ReflectAndWait implements hv.SWChannel: steps 2 and 3 of Figure 5.
// It reports whether the exit was handled over the channel; false means
// the fast path is degraded (watchdog retries exhausted, or the breaker
// is open) and the caller must service the exit on the baseline
// trap/resume path instead — the paper's requirement that SVt never be
// less live than vanilla nesting.
func (ch *Channel) ReflectAndWait(e isa.Exit) bool {
	if ch.breaker == nil {
		ch.breaker = fault.NewBreaker(ch.Core.Eng, breakerThreshold, breakerCooldown)
	}
	br := ch.breaker
	if !br.Allow() {
		ch.FallbackReflections.Inc()
		return false
	}
	ok := ch.reflect(e)
	if ok {
		br.Success()
	} else {
		br.Failure()
		ch.Fallbacks.Inc()
		// The trap/resume path services L2's device exits through the
		// devices the SVt-thread wires when it first runs, and a lost
		// wakeup presupposes a parked thread: with its trap reclaimed,
		// a thread that never ran boots and parks idle.
		if !ch.booted {
			ch.runSVtThread()
		}
	}
	return ok
}

// BreakerStats reports the breaker's trips and recoveries.
func (ch *Channel) BreakerStats() (trips, recoveries uint64) {
	if ch.breaker == nil {
		return 0, 0
	}
	return ch.breaker.Trips(), ch.breaker.Recoveries()
}

// ProbeState dumps ring occupancy and channel counters for stall reports.
func (ch *Channel) ProbeState() string {
	return fmt.Sprintf("toSVt=%d/%d fromSVt=%d/%d reflections=%d watchdog=%d fallbacks=%d+%d stopped=%v",
		ch.ToSVt.Len(), ch.ToSVt.Cap(), ch.FromSVt.Len(), ch.FromSVt.Cap(),
		ch.Reflections.Value(), ch.WatchdogFires.Value(), ch.Fallbacks.Value(),
		ch.FallbackReflections.Value(), ch.stopped)
}

// reflect performs one fault-aware reflection round trip. On a healthy
// run (no fault fires) its charges are byte-identical to the pre-fault-
// plane implementation: every consult below returns the zero outcome for
// free when no injector is registered.
func (ch *Channel) reflect(e isa.Exit) bool {
	m := ch.Core.Costs
	reflStart := ch.now()

	// Under a polling policy at SMT placement, L0₀'s spinning since the
	// last command stole cycles from the sibling; account it now.
	if ch.lastReturn > 0 {
		ch.L0.P.Charge(PollStolenCycles(m, ch.Policy, ch.Placement, ch.now()-ch.lastReturn))
	}

	// Push CMD_VM_TRAP with the register payload; a stalled push retries
	// under the watchdog.
	if !ch.pushTrap(e) {
		return false
	}
	// The SVt-thread wakes per its wait policy; it has been waiting since
	// it finished the previous command (which decides whether a mutex is
	// still inside its spin grace).
	threadIdle := ch.now() - ch.lastReturn
	if ch.lastReturn == 0 {
		threadIdle = 0
	}
	// A lost mwait wakeup is invisible to L0₀ until the watchdog expires;
	// each expiry charges the backed-off timeout and re-sends the wakeup.
	if !ch.watchdog(fault.SiteSVtWakeup, watchdogRetries, proceed) {
		// Retries exhausted: reclaim the unconsumed CMD_VM_TRAP so the
		// SVt-thread does not serve a stale command after re-arm, and
		// let the caller fall back to trap/resume.
		ch.ToSVt.Pop()
		return false
	}
	ch.Reflections.Inc()
	wakeStart := ch.now()
	ch.L0.P.Charge(WakeLatency(m, ch.Policy, ch.Placement, threadIdle))
	if ch.Obs != nil {
		// The mwait-wake of the SVt-thread on the sibling context.
		ch.Obs.Span(int(ch.VcpuSVt.Ctx), obs.KindWake, 1, 0,
			wakeStart, ch.now(), uint64(threadIdle), 0)
	}

	sent := ch.now()
	ch.runSVtThread()
	// While the SVt-thread handled the trap, a polling L0 stole cycles
	// from it (the other half of §6.1's SMT polling penalty).
	ch.L0.P.Charge(PollStolenCycles(m, ch.Policy, ch.Placement, ch.now()-sent))

	// §5.3: interrupts for the blocked L1 main vCPU must not wait for the
	// SVt-thread's answer.
	if ch.BlockedProtocol {
		ch.serviceBlockedL1()
	}

	// A spurious empty pop re-reads after a watchdog wait. The response
	// is in the ring (the SVt-thread pushed before parking), so it can
	// only be late, never lost: exhaustion falls through to a final read.
	ch.watchdog(fault.SiteRingPop, watchdogRetries, proceed)
	cmd, ok := ch.FromSVt.Pop()
	if !ok {
		if ch.stopped {
			panic("swsvt: reflection after the SVt-thread stopped")
		}
		panic("swsvt: SVt-thread went idle without answering CMD_VM_RESUME")
	}
	if cmd.Type != CmdVMResume {
		panic(fmt.Sprintf("swsvt: unexpected response %v", cmd.Type))
	}
	// L0₀ was waiting on the response ring with the same policy.
	ch.L0.P.Charge(WakeLatency(m, ch.Policy, ch.Placement, ch.now()-sent))
	ch.lastReturn = ch.now()
	if ch.Obs != nil {
		l0Track := int(ch.Ns.L2VCPU.Ctx)
		ch.Obs.Instant(l0Track, obs.KindRingPop, 1, ch.labFromSVt,
			ch.lastReturn, uint64(cmd.Type), 0)
		// The whole reflection round trip, on the context that trapped.
		ch.Obs.Span(l0Track, obs.KindReflect, 1, 0,
			reflStart, ch.lastReturn, uint64(e.Reason), 0)
	}
	return true
}

// pushTrap pushes CMD_VM_TRAP with the register payload, retrying
// stalled pushes (fault-injected or a genuinely full ring) under the
// watchdog. It reports false when the retries are exhausted.
func (ch *Channel) pushTrap(e isa.Exit) bool {
	m := ch.Core.Costs
	return ch.watchdog(fault.SiteRingPush, watchdogRetries, func() bool {
		ch.L0.P.Charge(m.RingCmd + sim.Time(int(isa.NumGPR))*m.RingPayloadReg)
		if ch.ToSVt.Push(Cmd{Type: CmdVMTrap, Exit: uint64(e.Reason)}) != nil {
			// ErrRingFull: the consumer is stuck; wait and retry rather
			// than dropping the command or killing the run.
			return false
		}
		if ch.Obs != nil {
			ch.Obs.Instant(int(ch.Ns.L2VCPU.Ctx), obs.KindRingPush, 1, ch.labToSVt,
				ch.now(), uint64(e.Reason), uint64(ch.ToSVt.Len()))
		}
		return true
	})
}

// serviceHostIRQs is L0₀'s host kernel taking external interrupts on the
// boot context while it waits on the response ring (it is mwaiting, not
// gone): acknowledge and run the kernel dispatch so wake vectors reach
// the SVt-thread's virtual LAPIC.
func (ch *Channel) serviceHostIRQs() {
	l := ch.Core.LAPIC(cpu.VisorContext)
	for l != nil && l.HasPending() {
		vec, _ := l.PendingVector()
		l.Ack(vec)
		ch.L0.P.Charge(ch.Core.Costs.IRQAck)
		ch.L0.HandleKernelIRQ(vec)
	}
}

// runSVtThread drives the SVt-thread's context until it parks in its
// mwait loop again, handling the genuine VM exits its handler work
// produces on the sibling context (L1₁ trapping into L0₁).
func (ch *Channel) runSVtThread() {
	ch.booted = true
	for {
		ch.serviceHostIRQs()
		ch.L0.PrepareResume(ch.VcpuSVt)
		e := ch.L0.P.Run(ch.VcpuSVt)
		if e.Reason == isa.ExitVMCall {
			switch e.Qualification {
			case cpu.QualSVtIdle:
				return
			case cpu.QualGuestDone:
				ch.stopped = true
				return
			}
		}
		if stop := ch.L0.Handle(ch.VcpuSVt, e); stop {
			msg := fmt.Sprintf("swsvt: SVt-thread session stopped on %v (deadlock=%v) at %v", e, ch.L0.DeadlockDetected, ch.L0.P.Now())
			panic(msg + "\n" + ch.Core.Eng.Report(msg).String())
		}
	}
}

// Wake implements hv.SWChannel: each L1 vCPU can halt waiting on
// interrupts the other holds. The main vCPU halts on the fallback path,
// while L1's device completions land on the SVt-thread, which otherwise
// runs only inside reflections. The SVt-thread halts inside a reflection
// of L2's HLT, while a vector the blocked main vCPU routes to L2 (its
// virtualized timer, say) waits for §5.3's SVT_BLOCKED delivery.
func (ch *Channel) Wake(vc *hv.VCPU) bool {
	switch {
	case vc == ch.VcpuL1Main && ch.PendingForL1():
		ch.runSVtThread()
		return true
	case vc == ch.VcpuSVt && ch.BlockedProtocol:
		return ch.serviceBlockedL1()
	}
	return false
}

// PendingForL1 reports whether the SVt-thread has virtual interrupts
// waiting; the L0 nested loop uses it to decide that an external
// interrupt needs a reflection even though L1's main vCPU shows nothing.
func (ch *Channel) PendingForL1() bool {
	return ch.VcpuSVt.VirtLAPIC != nil && ch.VcpuSVt.VirtLAPIC.HasPending()
}

// serviceBlockedL1 implements §5.3: when an interrupt arrives for the L1
// main vCPU while the SVt-thread holds the L2 trap, L0₀ injects a
// synthetic SVT_BLOCKED trap into L1₀; L1₀ runs its interrupt handler and
// immediately yields back with a VM resume, which L0₀ absorbs (it is
// still mid-reflection). Without this, an IPI sent by an L1 kernel thread
// to the blocked vCPU deadlocks the whole stack. It reports whether L1₀
// had anything pending.
func (ch *Channel) serviceBlockedL1() bool {
	vc := ch.VcpuL1Main
	if vc == nil || vc.VirtLAPIC == nil || !vc.VirtLAPIC.HasPending() {
		return false
	}
	ch.BlockedEvents.Inc()
	// Present the blocked trap through the shadow VMCS.
	ch.Ns.Vmcs12.RecordExit(isa.Exit{Reason: isa.ExitSVTBlocked})
	ch.L0.P.Charge(ch.Core.Costs.InjectExit)
	// L1₀ runs until it yields. Its handler drains the vector at its first
	// instruction boundary, but stopping there would leave it parked with
	// SVT_BLOCKED read and unhandled, and the resume after a later
	// fallback would handle that instead of the exit the fallback left.
	for {
		ch.L0.PrepareResume(vc)
		e := ch.L0.P.Run(vc)
		switch e.Reason {
		case isa.ExitVMResume:
			// L1₀ yielded control back (step 5 of §5.3); we are still
			// waiting for the SVt-thread, so absorb the resume.
			if !vc.VirtLAPIC.HasPending() {
				return true
			}
			ch.Ns.Vmcs12.RecordExit(isa.Exit{Reason: isa.ExitSVTBlocked})
		case isa.ExitVMCall:
			if e.Qualification == cpu.QualGuestDone {
				ch.stopped = true
				return true
			}
			ch.L0.Handle(vc, e)
		default:
			ch.L0.Handle(vc, e)
		}
	}
}

// SVtThread is the guest-hypervisor side of the prototype: a kernel
// thread inside L1, pinned to its own vCPU, that serves the VM traps of
// the L2 vCPU it is paired with (§5.2).
type SVtThread struct {
	Ch   *Channel
	H1   *hv.Hypervisor // the L1 hypervisor, on a virtual platform
	VC12 *hv.VCPU       // L1's vCPU record for L2

	Handled uint64
	// HandledByReason breaks Handled down per exit reason. The SVt-thread
	// services traps outside its hypervisor instance's run loop, so they
	// never land in an hv.Profile; the differential oracle sums this with
	// the main instance's profile to recover the L1-visible exit multiset.
	HandledByReason [isa.NumExitReasons]uint64
}

// Body is the native-guest body of the SVt-thread. It pairs itself with
// the main vCPU via a hypercall, then loops serving commands: mwait for
// CMD_VM_TRAP, handle the trap with the stock L1 exit handlers, answer
// CMD_VM_RESUME.
func (t *SVtThread) Body(p *cpu.Port) {
	p.Exec(isa.Instr{Op: isa.OpVMCall, Val: cpu.QualPairThreads})
	// The SVt-thread addresses the guest VMCS too (idempotent VMPTRLD so
	// exit-info reads resolve through the shadow).
	p.Exec(isa.Instr{Op: isa.OpVMPtrLd, Addr: t.VC12.VMCSAddr})
	plat := t.H1.P.(*hv.VirtualPlatform)
	for {
		cmd := t.waitPop(p)
		if cmd.Type != CmdVMTrap {
			panic(fmt.Sprintf("swsvt thread: unexpected command %v", cmd.Type))
		}
		e := plat.ReadExitInfo()
		t.H1.Handle(t.VC12, e)
		t.H1.PrepareResume(t.VC12)
		t.Handled++
		t.HandledByReason[e.Reason]++
		t.pushResume(p)
	}
}

// pushResume answers CMD_VM_RESUME, retrying stalled pushes under the
// watchdog. Unlike the L0 side there is no fallback here — L0₀ is
// parked on the response ring — so exhausting the retries fails loudly
// with the engine's structured report instead of deadlocking the rings.
func (t *SVtThread) pushResume(p *cpu.Port) {
	ch := t.Ch
	m := ch.Core.Costs
	p.Charge(m.RingCmd + sim.Time(int(isa.NumGPR))*m.RingPayloadReg)
	// The thread gets a much longer leash than a reflection (which can
	// fall back): give up only when a fallback-less retry storm shows the
	// ring is truly wedged.
	pushed := ch.watchdog(fault.SiteRingPush, 4*(watchdogRetries+1), func() bool {
		if ch.FromSVt.Push(Cmd{Type: CmdVMResume}) != nil {
			return false
		}
		if ch.Obs != nil {
			ch.Obs.Instant(int(ch.VcpuSVt.Ctx), obs.KindRingPush, 1,
				ch.labFromSVt, ch.now(), 0, uint64(ch.FromSVt.Len()))
		}
		return true
	})
	if !pushed {
		panic(ch.Core.Eng.Report("SVt-thread response push stalled beyond watchdog").String())
	}
}

// waitPop is the §5.2 wait loop: monitor the command ring, mwait until it
// changes, run any virtual interrupt handlers that arrived meanwhile.
func (t *SVtThread) waitPop(p *cpu.Port) Cmd {
	for {
		p.PollIRQs()
		if cmd, ok := t.Ch.ToSVt.Pop(); ok {
			if ch := t.Ch; ch.Obs != nil {
				ch.Obs.Instant(int(ch.VcpuSVt.Ctx), obs.KindRingPop, 1,
					ch.labToSVt, ch.now(), uint64(cmd.Exit), uint64(ch.ToSVt.Len()))
			}
			return cmd
		}
		p.Exec(isa.Instr{Op: isa.OpMonitor})
		p.Park()
	}
}
