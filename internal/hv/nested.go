package hv

import (
	"fmt"

	"svtsim/internal/cpu"
	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/vmcs"
)

// This file implements nested virtualization at L0: the VMCS shadowing of
// Figure 2, the vmcs12↔vmcs02 transforms, and the trap-reflection flow of
// Algorithm 1 — plus the SW SVt and HW SVt variants of that flow.

// handleVMPtrLd handles the guest hypervisor loading its VM state
// descriptor: L0 starts "shadowing" it (step 1 of Figure 2) by linking
// the shadow VMCS under the guest hypervisor's own VMCS.
func (h *Hypervisor) handleVMPtrLd(vc *VCPU, e isa.Exit) {
	ns := vc.Nested
	if ns == nil || e.Qualification != ns.Vmcs12Addr {
		panic(fmt.Sprintf("%s: VMPTRLD of unknown VMCS %#x by %s", h.Name, e.Qualification, vc.Name))
	}
	h.P.Charge(2 * h.Costs.EmulVMCSAccess)
	ns.Active = true
	vc.VMCS.ShadowEnabled = !h.NoVMCSShadowing
	vc.VMCS.Shadow = ns.Vmcs12
	h.advanceRIP(vc, e)
}

// handleVMRead emulates a trapped VMREAD against the shadow copy.
func (h *Hypervisor) handleVMRead(vc *VCPU, e isa.Exit) {
	ns := h.activeNested(vc)
	h.P.Charge(h.Costs.EmulVMCSAccess)
	h.P.WriteGuestGPR(vc, isa.RAX, ns.Vmcs12.Read(vmcs.Field(e.Qualification)))
	h.advanceRIP(vc, e)
}

// handleVMWrite emulates a trapped VMWRITE, reflecting it into vmcs12 and
// reacting to the fields that need L0-side work (EPT pointer).
func (h *Hypervisor) handleVMWrite(vc *VCPU, e isa.Exit) {
	ns := h.activeNested(vc)
	h.P.Charge(h.Costs.EmulVMCSAccess)
	f := vmcs.Field(e.Qualification)
	ns.Vmcs12.Write(f, e.Value)
	if f == vmcs.EPTPointer && ns.OnEPTP != nil {
		ns.OnEPTP(e.Value)
	}
	h.advanceRIP(vc, e)
}

func (h *Hypervisor) activeNested(vc *VCPU) *NestedState {
	ns := vc.Nested
	if ns == nil || !ns.Active {
		panic(fmt.Sprintf("%s: nested VMX operation by %s without an active nested VMCS", h.Name, vc.Name))
	}
	return ns
}

// nestedEntry prepares vmcs02 from vmcs12 (lines 13–14 of Algorithm 1)
// and charges the transform work of Table 1's stage 2.
func (h *Hypervisor) nestedEntry(ns *NestedState) {
	led := h.ledger()
	var prev sim.Category
	if led != nil {
		prev = led.Swap(sim.CatTransform)
	}
	st, err := vmcs.ToPhysical(ns.Vmcs02, ns.Vmcs12, ns.Xlat, forcedControls)
	if err != nil {
		panic(fmt.Sprintf("%s: vmcs12→vmcs02 transform failed: %v", h.Name, err))
	}
	h.P.Charge(h.Costs.TransformBase +
		sTime(st.Fields)*h.Costs.TransformField +
		sTime(st.Pointers)*h.Costs.TransformPtr)
	if !h.Mode.HWSVt() {
		// The nested guest's registers travel through memory; under HW SVt
		// they are resident in the nested context's register file.
		ns.Vmcs02.GPRs = ns.Vmcs12.GPRs
		h.P.Charge(sTime(len(ns.Vmcs12.GPRs)) * h.Costs.ThunkPerReg)
	}
	if led != nil {
		led.Swap(prev)
	}
	// An event injected by L1 is now latched into vmcs02; consume the
	// vmcs12 copy so it is delivered exactly once.
	if ns.Vmcs02.Read(vmcs.EntryIntrInfo)&cpu.InjectValid != 0 {
		ns.Vmcs12.Write(vmcs.EntryIntrInfo, 0)
	}
	h.P.Charge(h.Costs.ResumePrep)
}

// reflectExit makes a nested VM exit visible to the guest hypervisor:
// vmcs02→vmcs12 state reflection, register copy-back, and exit-info
// injection (lines 3–5 of Algorithm 1).
func (h *Hypervisor) ledger() *sim.Ledger {
	if rp, ok := h.P.(*RealPlatform); ok {
		return rp.Core.Eng.Ledger()
	}
	return nil
}

func (h *Hypervisor) reflectExit(ns *NestedState, e2 isa.Exit) {
	led := h.ledger()
	var prev sim.Category
	if led != nil {
		prev = led.Swap(sim.CatTransform)
	}
	st := vmcs.ToVirtual(ns.Vmcs12, ns.Vmcs02)
	h.P.Charge(h.Costs.TransformBase + sTime(st.Fields)*h.Costs.TransformField)
	if !h.Mode.HWSVt() {
		ns.Vmcs12.GPRs = ns.Vmcs02.GPRs
		h.P.Charge(sTime(len(ns.Vmcs02.GPRs)) * h.Costs.ThunkPerReg)
	}
	if led != nil {
		led.Swap(prev)
	}
	ns.Vmcs12.RecordExit(e2)
	h.P.Charge(h.Costs.InjectExit + 6*h.Costs.VMWrite)
	if h.Mode == ModeBaseline {
		h.P.Charge(h.Costs.LazyL0toL1)
	}
}

func sTime(n int) sim.Time { return sim.Time(n) }

// handleVMResume is the nested-entry flow (lines 13–15 of Algorithm 1)
// plus the dispatch of the resulting nested exits (lines 2–5): it runs L2
// until an exit the guest hypervisor must see, reflects it, and — except
// under SW SVt, where the SVt-thread answers over the command ring — lets
// the run loop resume L1 with the injected exit.
func (h *Hypervisor) handleVMResume(vc *VCPU, e isa.Exit) bool {
	ns := h.activeNested(vc)
	for {
		h.nestedEntry(ns)
		e2 := h.P.Run(ns.L2VCPU)
		tHandle := h.P.Now()

		// §3.1 bypass: an exit the guest hypervisor owns is delivered to
		// its context directly — hardware records the exit in vmcs12 and
		// switches to the guest hypervisor; L0 never dispatches it.
		if h.Mode == ModeHWSVtBypass &&
			e2.Reason != isa.ExitExternalInterrupt &&
			!(e2.Reason == isa.ExitVMCall && e2.Qualification == cpu.QualGuestDone) &&
			h.ownedByL1(ns, e2) && !h.dropOwned(e2) {
			// Hardware keeps the guest-state view coherent (same physical
			// registers and fields), so the sync is free.
			vmcs.ToVirtual(ns.Vmcs12, ns.Vmcs02)
			ns.Vmcs12.RecordExit(e2)
			h.recordNested(ns.L2VCPU, e2, tHandle)
			return false
		}

		h.P.Charge(h.Costs.DispatchNested)
		if !h.Mode.HWSVt() {
			h.P.Charge(h.Costs.LazyL2L0)
		}

		switch {
		case e2.Reason == isa.ExitVMCall && e2.Qualification == cpu.QualGuestDone:
			return true

		case e2.Reason == isa.ExitExternalInterrupt:
			// L0 always owns the physical interrupt (§2.1): acknowledge,
			// run host-side completion work, then decide whether L1 needs
			// to see an interrupt exit.
			h.P.Charge(h.Costs.IRQAck)
			h.P.(*RealPlatform).AckIRQ(ns.L2VCPU, e2.Vector)
			h.HandleKernelIRQ(e2.Vector)
			l1Wants := vc.VirtLAPIC != nil && vc.VirtLAPIC.HasPending() ||
				h.SW != nil && h.SW.PendingForL1()
			if l1Wants && ns.Vmcs12.Read(vmcs.PinControls)&vmcs.PinCtlExtIntExit != 0 {
				handled := h.deliverToL1(ns, e2)
				h.recordNested(ns.L2VCPU, e2, tHandle)
				if handled {
					continue
				}
				return false
			}
			// Nothing for L1: resume L2 directly.
			h.recordNested(ns.L2VCPU, e2, tHandle)

		case h.ownedByL1(ns, e2) && !h.dropOwned(e2):
			handled := h.deliverToL1(ns, e2)
			h.recordNested(ns.L2VCPU, e2, tHandle)
			if handled {
				continue // the SVt-thread already handled it; re-enter L2
			}
			// Baseline path — or a degraded SW-SVt reflection: the exit is
			// already recorded in vmcs12, so resuming L1 services it on the
			// classic trap/resume path.
			return false

		default:
			// An exit L0 handles itself against vmcs02 (the guest
			// hypervisor never learns about it).
			stop := h.Handle(ns.L2VCPU, e2)
			h.recordNested(ns.L2VCPU, e2, tHandle)
			if stop {
				return true
			}
		}
	}
}

// recordNested attributes the handling time since start to the nested
// exit reason (the measurement behind the paper's §6.2/§6.3 profiles).
func (h *Hypervisor) recordNested(l2 *VCPU, e2 isa.Exit, start sim.Time) {
	d := h.P.Now() - start
	h.NestedProf.Time[e2.Reason] += d
	h.NestedProf.Count[e2.Reason]++
	h.NestedProf.Total += d
	h.traceExit(l2, e2, true, start)
}

// deliverToL1 reflects e2 and, when a SW SVt channel is wired, round-trips
// it through the command ring to the SVt-thread (§5.2). It reports whether
// the exit was fully serviced over the channel; false means the caller
// must resume L1 so the exit (already recorded in vmcs12 by reflectExit)
// is handled on the baseline trap/resume path — either because no
// channel is wired, or because the channel degraded (watchdog exhausted,
// breaker open).
func (h *Hypervisor) deliverToL1(ns *NestedState, e2 isa.Exit) bool {
	h.reflectExit(ns, e2)
	return h.SW != nil && h.SW.ReflectAndWait(e2)
}

// dropOwned consults the DropOwnedExit test hook; a dropped exit falls
// through to the default arm of the nested dispatch, where L0 emulates it
// against vmcs02 and the guest hypervisor never sees it. The guest's
// register results stay identical (the emulation code is shared), so only
// a whole-machine equivalence check can notice the lost delivery.
func (h *Hypervisor) dropOwned(e2 isa.Exit) bool {
	return h.DropOwnedExit != nil && h.DropOwnedExit(e2)
}

// ownedByL1 decides whether the guest hypervisor would have received this
// exit had it controlled the hardware — i.e. whether vmcs12 asks for it.
func (h *Hypervisor) ownedByL1(ns *NestedState, e2 isa.Exit) bool {
	switch e2.Reason {
	case isa.ExitCPUID, isa.ExitVMCall:
		return true // architecturally unconditional
	case isa.ExitMSRRead, isa.ExitMSRWrite, isa.ExitAPICWrite:
		return ns.Vmcs12.MSRExits(uint32(e2.Qualification))
	case isa.ExitEPTMisconfig:
		// The device belongs to whoever emulates it; if L0 has no model
		// registered under this ID, it is the guest hypervisor's device.
		return h.Devices[e2.Qualification] == nil
	case isa.ExitHLT:
		return ns.Vmcs12.Read(vmcs.ProcControls)&vmcs.ProcCtlHLTExit != 0
	case isa.ExitEPTViolation:
		return false
	default:
		return true
	}
}

// HandleKernelIRQ is the host kernel's interrupt dispatch: completion
// processing for device backends and vector routing to guest vCPUs.
func (h *Hypervisor) HandleKernelIRQ(vec int) {
	if dev := h.VectorToDevice[vec]; dev != nil {
		dev.OnIRQ()
	}
	if target := h.VectorRoute[vec]; target != nil {
		h.InjectIRQ(target, vec)
	}
}
