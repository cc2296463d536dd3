// Package hv implements the hypervisor: a KVM-like trap-and-emulate
// kernel module with full nested-virtualization support (VMCS shadowing,
// vmcs12↔vmcs02 transforms, exit reflection — Algorithm 1 of the paper),
// plus the SVt and SW-SVt acceleration paths.
//
// The same Hypervisor code runs at every virtualization level; only the
// Platform underneath differs. L0 runs on the RealPlatform (the simulated
// core's actual VMX primitives); L1 runs on a VirtualPlatform whose
// privileged operations execute trapping instructions through the guest
// port — so the extra exits nested virtualization induces (§2.2, lines
// 8–10 of Algorithm 1) are *emergent*, not scripted.
package hv

import (
	"svtsim/internal/cpu"
	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/vmcs"
)

// Platform is what a hypervisor needs from the layer below: VMX-root
// operations plus guest register access. Costs are charged inside the
// implementations.
type Platform interface {
	Now() sim.Time
	// Charge accounts hypervisor compute time.
	Charge(d sim.Time)

	// Run enters the guest of vc until a VM exit and returns it
	// (VMRESUME + exit retrieval).
	Run(vc *VCPU) isa.Exit

	// VMRead/VMWrite access a field of a VMCS this hypervisor manages.
	VMRead(v *vmcs.VMCS, f vmcs.Field) uint64
	VMWrite(v *vmcs.VMCS, f vmcs.Field, val uint64)

	// ReadGuestGPR/WriteGuestGPR access the register context of vc's
	// guest while it is stopped. Under SVt these become ctxtld/ctxtst;
	// in the baseline they touch the software save area.
	ReadGuestGPR(vc *VCPU, r isa.Reg) uint64
	WriteGuestGPR(vc *VCPU, r isa.Reg, val uint64)

	// SetTimer arms the one-shot platform timer that backs a guest's
	// virtualized TSC deadline; at deadline the platform delivers
	// ports.VecTimer to the hypervisor owning vc.
	SetTimer(vc *VCPU, deadline sim.Time)

	// Idle blocks until an interrupt is pending for this hypervisor or
	// one of vc's vectors (used for HLT handling). It reports false if
	// the simulation has no more events (deadlock).
	Idle(vc *VCPU) bool
}

// RealPlatform is VMX root mode on the simulated core: what L0 runs on.
type RealPlatform struct {
	Core   *cpu.Core
	timers map[cpu.ContextID]sim.EventRef
}

// NewRealPlatform wraps a core.
func NewRealPlatform(c *cpu.Core) *RealPlatform {
	return &RealPlatform{
		Core:   c,
		timers: make(map[cpu.ContextID]sim.EventRef),
	}
}

// Now implements Platform.
func (p *RealPlatform) Now() sim.Time { return p.Core.Eng.Now() }

// Charge implements Platform.
func (p *RealPlatform) Charge(d sim.Time) { p.Core.Eng.Advance(d) }

// Run implements Platform: load the vCPU's VMCS if it is not current and
// enter the guest.
func (p *RealPlatform) Run(vc *VCPU) isa.Exit {
	if p.Core.SVtEnabled() {
		// The SVt µ-registers are per-core and must describe the VM being
		// entered, so the current-VMCS check is per-core too.
		if p.Core.LastLoaded() != vc.VMCS {
			p.Core.VMPtrLoad(vc.Ctx, vc.VMCS)
		}
	} else if p.Core.LoadedVMCS(vc.Ctx) != vc.VMCS {
		p.Core.VMPtrLoad(vc.Ctx, vc.VMCS)
	}
	return p.Core.RunGuest(vc.Ctx, vc.VMCS, vc.Guest, vc.RunState)
}

// VMRead implements Platform (direct field access plus its cost).
func (p *RealPlatform) VMRead(v *vmcs.VMCS, f vmcs.Field) uint64 {
	p.Core.Eng.Advance(p.Core.Costs.VMRead)
	return v.Read(f)
}

// VMWrite implements Platform.
func (p *RealPlatform) VMWrite(v *vmcs.VMCS, f vmcs.Field, val uint64) {
	p.Core.Eng.Advance(p.Core.Costs.VMWrite)
	v.Write(f, val)
}

// ReadGuestGPR implements Platform. Under SVt the access is a ctxtld of
// the subordinate context; in the baseline it reads the save area the
// exit thunk filled.
func (p *RealPlatform) ReadGuestGPR(vc *VCPU, r isa.Reg) uint64 {
	if p.Core.SVtEnabled() {
		val, exit := p.Core.CtxtAccess(vc.Lvl, r, false, 0)
		if exit.Reason == isa.ExitNone {
			return val
		}
	}
	p.Core.Eng.Advance(p.Core.Costs.InstrBase)
	return vc.VMCS.GPRs[r]
}

// WriteGuestGPR implements Platform.
func (p *RealPlatform) WriteGuestGPR(vc *VCPU, r isa.Reg, val uint64) {
	if p.Core.SVtEnabled() {
		if _, exit := p.Core.CtxtAccess(vc.Lvl, r, true, val); exit.Reason == isa.ExitNone {
			return
		}
	}
	p.Core.Eng.Advance(p.Core.Costs.InstrBase)
	vc.VMCS.GPRs[r] = val
}

// SetTimer implements Platform using an engine event that raises the
// timer vector on the context's physical LAPIC.
func (p *RealPlatform) SetTimer(vc *VCPU, deadline sim.Time) {
	ctx := vc.Ctx
	if ev, ok := p.timers[ctx]; ok {
		p.Core.Eng.Cancel(ev)
		delete(p.timers, ctx)
	}
	if deadline == 0 {
		return
	}
	p.timers[ctx] = p.Core.Eng.AtCall(deadline, p, uint64(ctx))
}

// Fire implements sim.Handler: the timer armed for context arg expires.
func (p *RealPlatform) Fire(arg uint64) {
	delete(p.timers, cpu.ContextID(arg))
	// Timer interrupts are steered to the visor context, where the host
	// hypervisor takes external interrupts (§3.1).
	if l := p.Core.LAPIC(cpu.VisorContext); l != nil {
		l.Deliver(vecTimer)
	}
}

// AckIRQ acknowledges a physical interrupt on the LAPIC of the context
// that received the vector. Only L0 takes physical interrupts; a guest
// hypervisor's are virtual vectors its kernel IRQ poll consumes.
func (p *RealPlatform) AckIRQ(vc *VCPU, vec int) {
	if l := p.Core.LAPIC(p.Core.IRQContext(vc.Ctx)); l != nil {
		l.Ack(vec)
	}
}

// Idle implements Platform: advance virtual time until an interrupt shows
// up on a physical LAPIC, or until an event dispatch delivers an
// interrupt anywhere else (wake epoch). The caller has just seen vc's
// virtual LAPIC empty, so a vector for vc arrives only by a delivery,
// which moves the epoch. The epoch check matters for nested HLT chains:
// L0 idles on behalf of a guest hypervisor whose own wait condition is a
// *different* virtual LAPIC, so any delivery fired from event context (a
// fault-delayed re-delivery, for instance) must unwind the sleeper and
// let every level re-check.
func (p *RealPlatform) Idle(*VCPU) bool {
	for {
		if p.Core.AnyPendingIRQ() {
			return true
		}
		mark := p.Core.Eng.WakeEpoch()
		if !p.Core.Eng.Step() {
			return false
		}
		if p.Core.Eng.WakeEpoch() != mark {
			return true
		}
	}
}
