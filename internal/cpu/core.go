package cpu

import (
	"fmt"

	"svtsim/internal/cost"
	"svtsim/internal/ept"
	"svtsim/internal/isa"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/vmcs"
)

// ContextID names a hardware context (SMT thread / SVt context) of a core.
type ContextID int

// NoContext is the invalid context value.
const NoContext ContextID = -1

// Stats aggregates core-level counters.
type Stats struct {
	Entries       uint64
	StallResumes  uint64 // SVt fetch-target switches
	ThunkRegMoves uint64 // registers moved by the software thunk
	CtxtAccesses  uint64 // ctxtld/ctxtst executed
	Instructions  uint64
	LevelSwaps    uint64 // baseline software state swaps on VMCS level change
	InjectedIRQs  uint64
}

// Core is one SMT core. Exactly one context fetches instructions at any
// time (the SVt_current µ-register); in SVt mode transitions between
// contexts are stall/resume events, in baseline mode all virtualization
// levels share one context and pay register save/restore.
type Core struct {
	Eng   *sim.Engine
	Costs *cost.Model

	n        int
	rf       *RegFile
	hostSave [][isa.NumGPR]uint64 // per-context host registers during guest execution

	lapics []ports.IRQController // physical interrupt controller per context

	// µ-registers (Table 2). current is SVt_current; isVM tracks guest
	// mode; the three SVt registers cache the fields of the loaded VMCS.
	current   ContextID
	isVM      bool
	svtVisor  ContextID
	svtVM     ContextID
	svtNested ContextID
	svtOn     bool

	loaded     []*vmcs.VMCS // per-logical-CPU (context) current VMCS
	lastLoaded *vmcs.VMCS   // per-core most recent VMPTRLD (feeds the SVt µ-registers)

	// eptTables resolves the value of a VMCS EPT-pointer field to the
	// table it names (the machine registers tables here).
	eptTables map[uint64]*ept.Table

	Stats Stats

	// Obs, when non-nil, receives a stall/resume instant per SVt fetch-
	// target switch on the track of the context being resumed.
	Obs *obs.Tracer
}

// New returns a core with n hardware contexts.
func New(eng *sim.Engine, costs *cost.Model, n int) *Core {
	if n < 1 {
		panic("cpu: need at least one context")
	}
	c := &Core{
		Eng:       eng,
		Costs:     costs,
		n:         n,
		rf:        NewRegFile(n, 2*int(isa.NumGPR)),
		hostSave:  make([][isa.NumGPR]uint64, n),
		lapics:    make([]ports.IRQController, n),
		loaded:    make([]*vmcs.VMCS, n),
		eptTables: make(map[uint64]*ept.Table),
		current:   0,
		svtVisor:  NoContext,
		svtVM:     NoContext,
		svtNested: NoContext,
	}
	return c
}

// Contexts reports the number of hardware contexts.
func (c *Core) Contexts() int { return c.n }

// The SVt layout: the host hypervisor gives hardware context n to
// virtualization level n (§4), so L0 (the visor) runs on context 0, its
// guest on 1 and the nested VM on 2. The visor context is also where L0
// takes external interrupts (§3.1).
const (
	VisorContext  ContextID = 0
	GuestContext  ContextID = 1
	NestedContext ContextID = 2
)

// EnableSVt switches the core into SVt mode: transitions become
// stall/resume events, registers stay resident per context, and
// external interrupts steer to the visor context.
func (c *Core) EnableSVt() { c.svtOn = true }

// IRQContext reports the context whose interrupt controller takes the
// external interrupts of ctx: under SVt every one is steered to the
// visor context (§3.1); otherwise each hardware thread takes its own.
func (c *Core) IRQContext(ctx ContextID) ContextID {
	if c.svtOn {
		return VisorContext
	}
	return ctx
}

// SVtEnabled reports whether SVt mode is active.
func (c *Core) SVtEnabled() bool { return c.svtOn }

// SetLAPIC binds the physical interrupt controller of a context. The
// name predates the ports layer; it reads naturally for the default
// x86 port and is kept for the controller role regardless of port.
func (c *Core) SetLAPIC(ctx ContextID, l ports.IRQController) { c.lapics[ctx] = l }

// LAPIC returns the physical interrupt controller of a context.
func (c *Core) LAPIC(ctx ContextID) ports.IRQController { return c.lapics[ctx] }

// RegisterEPT associates an EPT-pointer value with a table so guest MMIO
// accesses can be translated.
func (c *Core) RegisterEPT(eptp uint64, t *ept.Table) { c.eptTables[eptp] = t }

// ReadGPR reads a guest GPR for context ctx while the guest is *running*
// (registers resident in the file).
func (c *Core) ReadGPR(ctx ContextID, r isa.Reg) uint64 { return c.rf.Read(int(ctx), r) }

// RegFile exposes the register file (tests, SVt cross-context access,
// snapshots).
func (c *Core) RegFile() *RegFile { return c.rf }

// VMPtrLoad makes v the current VMCS of context ctx, charging the VMPTRLD
// cost, caching the SVt fields into the µ-registers (§4 step B), and — in
// the baseline design — charging the extra software state swap when the
// newly loaded VMCS represents a different virtualization level than the
// previous one (§2.3: switching L0 between L2 and L1 costs more).
func (c *Core) VMPtrLoad(ctx ContextID, v *vmcs.VMCS) {
	c.Eng.Advance(c.Costs.VMPtrLd)
	prev := c.loaded[ctx]
	c.loaded[ctx] = v
	c.lastLoaded = v
	if v != nil {
		c.svtVisor = svtField(v.Read(vmcs.SVtVisor))
		c.svtVM = svtField(v.Read(vmcs.SVtVM))
		c.svtNested = svtField(v.Read(vmcs.SVtNested))
	}
	if !c.svtOn && prev != nil && v != nil && prev.VMLevel != v.VMLevel {
		// Extra software state swap when the hypervisor turns from running
		// one level to running another (part of the L0↔L1 switch cost).
		if led := c.Eng.Ledger(); led != nil {
			prevCat := led.Swap(sim.CatSwitchL0L1)
			c.Eng.Advance(c.Costs.LevelStateSwap)
			led.Swap(prevCat)
		} else {
			c.Eng.Advance(c.Costs.LevelStateSwap)
		}
		c.Stats.LevelSwaps++
	}
}

// LoadedVMCS reports the current VMCS of a context.
func (c *Core) LoadedVMCS(ctx ContextID) *vmcs.VMCS { return c.loaded[ctx] }

// LastLoaded reports the most recent VMPTRLD on the core; the SVt
// µ-registers always reflect this VMCS (Table 2: µ-registers are
// per-core).
func (c *Core) LastLoaded() *vmcs.VMCS { return c.lastLoaded }

// AnyPendingIRQ reports whether any context's physical LAPIC has a
// pending vector (used by idle loops).
func (c *Core) AnyPendingIRQ() bool {
	for _, l := range c.lapics {
		if l != nil && l.HasPending() {
			return true
		}
	}
	return false
}

func svtField(v uint64) ContextID {
	if v == vmcs.InvalidContext {
		return NoContext
	}
	return ContextID(v)
}

// enterGuest performs the VM-entry transition onto ctx under v: event
// injection, then either the baseline register thunk or an SVt
// stall/resume.
// enterCat and exitCat classify a transition for the time ledger,
// following Table 1's accounting: the explicit L0↔L1 switch (stage 4) is
// the resume that delivers a reflected exit into L1 plus L1's final
// VMRESUME trap; the transitions around L1's *inner* exits (lines 8–10 of
// Algorithm 1) are folded into the L0 handler (stage 3), as the paper's
// own footnote describes.
func enterCat(v *vmcs.VMCS) sim.Category {
	if v.VMLevel >= 2 {
		return sim.CatSwitchL2L0
	}
	switch isa.ExitReason(v.Read(vmcs.ExitReasonF)) {
	case isa.ExitNone, isa.ExitVMResume:
		return sim.CatSwitchL0L1 // resuming L1 after a reflection
	default:
		return sim.CatL0 // re-entry after emulating an inner exit
	}
}

func exitCat(v *vmcs.VMCS, e isa.Exit) sim.Category {
	if v.VMLevel >= 2 {
		return sim.CatSwitchL2L0
	}
	if e.Reason == isa.ExitVMResume {
		return sim.CatSwitchL0L1
	}
	return sim.CatL0
}

// guestCat is the ledger category while the guest of v executes: nested
// VM work is "L2", a guest hypervisor's code is the "L1 handler".
func guestCat(v *vmcs.VMCS) sim.Category {
	if v.VMLevel >= 2 {
		return sim.CatGuest
	}
	return sim.CatL1
}

func (c *Core) enterGuest(ctx ContextID, v *vmcs.VMCS, g Guest) {
	c.Stats.Entries++
	if led := c.Eng.Ledger(); led != nil {
		led.Swap(enterCat(v))
		defer led.Swap(guestCat(v))
	}
	if ng, ok := g.(*NativeGuest); ok && ng.parkedIdle {
		// Resuming a thread that never left guest mode (mwait park): no
		// VMX transition, no register movement. The wake latency itself is
		// charged by the SW SVt channel per its wait policy.
		c.current = ctx
		c.isVM = true
		if info := v.Read(vmcs.EntryIntrInfo); info&InjectValid != 0 {
			v.Write(vmcs.EntryIntrInfo, 0)
			c.Stats.InjectedIRQs++
			g.DeliverIRQ(int(info & 0xFF))
		}
		return
	}
	if c.svtOn && ctx != c.current {
		// SVt: squash the current context's speculative state and switch
		// the fetch target; all register state stays resident (§3, §4 C).
		c.Eng.Advance(c.Costs.StallResume)
		c.Stats.StallResumes++
		if c.Obs != nil {
			c.Obs.Instant(int(ctx), obs.KindStallResume, obs.LevelNone, 0,
				c.Eng.Now(), uint64(c.current), uint64(ctx))
		}
		c.current = ctx
	} else {
		// Baseline: VMRESUME µcode plus the software thunk that loads the
		// guest's GPRs (saving the host's).
		c.Eng.Advance(c.Costs.EntryLeg())
		c.Stats.ThunkRegMoves += uint64(c.Costs.ThunkRegs)
		c.hostSave[ctx] = c.rf.ReadAll(int(ctx))
		c.rf.WriteAll(int(ctx), v.GPRs)
		c.current = ctx
	}
	c.isVM = true
	// Deliver a pending injected event (ENTRY_INTR_INFO valid bit).
	if info := v.Read(vmcs.EntryIntrInfo); info&InjectValid != 0 {
		v.Write(vmcs.EntryIntrInfo, 0)
		c.Stats.InjectedIRQs++
		if g != nil {
			g.DeliverIRQ(int(info & 0xFF))
		}
	}
}

// exitGuest performs the VM-exit transition from ctx under v, recording e
// into the VMCS exit-information fields.
func (c *Core) exitGuest(ctx ContextID, v *vmcs.VMCS, e isa.Exit) isa.Exit {
	if e.Reason == isa.ExitVMCall && e.Qualification == QualSVtIdle {
		// mwait park: the thread stays in guest mode; control returns to
		// the simulation driver without an architectural VM exit.
		c.isVM = false
		return e
	}
	if led := c.Eng.Ledger(); led != nil {
		led.Swap(exitCat(v, e))
		defer led.Swap(sim.CatL0)
	}
	v.RecordExit(e)
	if c.svtOn && c.svtVisor != NoContext && c.svtVisor != ctx {
		c.Eng.Advance(c.Costs.StallResume)
		c.Stats.StallResumes++
		if c.Obs != nil {
			c.Obs.Instant(int(c.svtVisor), obs.KindStallResume, obs.LevelNone, 0,
				c.Eng.Now(), uint64(c.current), uint64(c.svtVisor))
		}
		c.current = c.svtVisor
	} else {
		c.Eng.Advance(c.Costs.ExitLeg())
		c.Stats.ThunkRegMoves += uint64(c.Costs.ThunkRegs)
		v.GPRs = c.rf.ReadAll(int(ctx))
		c.rf.WriteAll(int(ctx), c.hostSave[ctx])
	}
	c.isVM = false
	return e
}

// CtxtAccess performs a ctxtld (write=false) or ctxtst (write=true): the
// SVt cross-context register access (§4). lvl selects the target context
// indirectly through the µ-registers; invalid combinations return a trap
// so software can emulate deeper hierarchies. The exit is zero when the
// access completed.
func (c *Core) CtxtAccess(lvl int, r isa.Reg, write bool, val uint64) (uint64, isa.Exit) {
	if !c.svtOn {
		return 0, isa.Exit{Reason: isa.ExitVMCall, Qualification: QualBadCtxtAccess}
	}
	var target ContextID
	switch {
	case !c.isVM && lvl == 1:
		target = c.svtVM
	case !c.isVM && lvl == 2:
		target = c.svtNested
	case c.isVM && lvl == 1:
		target = c.svtNested
	default:
		target = NoContext
	}
	if target == NoContext {
		return 0, isa.Exit{Reason: isa.ExitVMCall, Qualification: QualBadCtxtAccess}
	}
	c.Eng.Advance(c.Costs.CtxtAccess)
	c.Stats.CtxtAccesses++
	if write {
		c.rf.Write(int(target), r, val)
		return val, isa.Exit{}
	}
	return c.rf.Read(int(target), r), isa.Exit{}
}

// Entry interrupt-information encoding.
const InjectValid uint64 = 1 << 31

// VMCall qualification values used by the model.
const (
	QualGuestDone     uint64 = 0xD07E // workload finished
	QualBadCtxtAccess uint64 = 0xBAD0 // invalid ctxtld/ctxtst combination
	QualPairThreads   uint64 = 0x5A17 // SW SVt pairing hypercall (§5.2)
	// QualSVtIdle is the simulation-level park of a thread sitting in
	// monitor/mwait: architecturally the thread stays in guest mode and no
	// VM transition occurs, so sessions crossing this boundary are free.
	QualSVtIdle uint64 = 0x1D7E
)

func (c *Core) String() string {
	return fmt.Sprintf("core(n=%d current=%d svt=%v)", c.n, c.current, c.svtOn)
}
