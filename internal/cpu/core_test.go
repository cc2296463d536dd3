package cpu

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"svtsim/internal/allocs"
	"svtsim/internal/cost"
	"svtsim/internal/ept"
	"svtsim/internal/isa"
	"svtsim/internal/ports"
	x86port "svtsim/internal/ports/x86"
	"svtsim/internal/race"
	"svtsim/internal/sim"
	"svtsim/internal/vmcs"
)

func testCore(n int) *Core {
	eng := sim.New()
	m := cost.Baseline()
	return New(eng, &m, n)
}

func newVMCS(name string, level int) *vmcs.VMCS {
	v := vmcs.New(name)
	v.VMLevel = level
	v.Write(vmcs.PinControls, vmcs.PinCtlExtIntExit)
	v.Write(vmcs.ProcControls, vmcs.ProcCtlHLTExit|vmcs.ProcCtlUseMSRBitmap)
	return v
}

func TestVMPtrLoadCachesSVtFields(t *testing.T) {
	c := testCore(3)
	v := newVMCS("vmcs01", 1)
	v.Write(vmcs.SVtVisor, 0)
	v.Write(vmcs.SVtVM, 1)
	c.VMPtrLoad(0, v)
	if c.svtVisor != 0 || c.svtVM != 1 || c.svtNested != NoContext {
		t.Fatalf("µregs = %d/%d/%d", c.svtVisor, c.svtVM, c.svtNested)
	}
	if c.LoadedVMCS(0) != v {
		t.Fatal("loaded VMCS not tracked")
	}
}

func TestVMPtrLoadLevelSwapCost(t *testing.T) {
	c := testCore(1)
	v01 := newVMCS("vmcs01", 1)
	v02 := newVMCS("vmcs02", 2)
	c.VMPtrLoad(0, v01)
	before := c.Eng.Now()
	c.VMPtrLoad(0, v02) // level 1 -> 2: swap
	d := c.Eng.Now() - before
	want := c.Costs.VMPtrLd + c.Costs.LevelStateSwap
	if d != want {
		t.Fatalf("level-changing VMPTRLD cost %v, want %v", d, want)
	}
	if c.Stats.LevelSwaps != 1 {
		t.Fatalf("level swaps = %d", c.Stats.LevelSwaps)
	}
	before = c.Eng.Now()
	c.VMPtrLoad(0, newVMCS("vmcs02b", 2)) // same level: no swap
	if got := c.Eng.Now() - before; got != c.Costs.VMPtrLd {
		t.Fatalf("same-level VMPTRLD cost %v, want %v", got, c.Costs.VMPtrLd)
	}
}

func TestVMPtrLoadNoSwapUnderSVt(t *testing.T) {
	c := testCore(3)
	c.EnableSVt()
	c.VMPtrLoad(0, newVMCS("vmcs01", 1))
	before := c.Eng.Now()
	c.VMPtrLoad(0, newVMCS("vmcs02", 2))
	if got := c.Eng.Now() - before; got != c.Costs.VMPtrLd {
		t.Fatalf("SVt VMPTRLD must not pay level swap: %v", got)
	}
}

// loopGuest executes a fixed slice of actions and then reports done.
type loopGuest struct {
	acts []Action
	i    int
	irqs []int
}

func (g *loopGuest) Step() Action {
	if g.i >= len(g.acts) {
		return Action{Kind: ActDone}
	}
	a := g.acts[g.i]
	g.i++
	return a
}
func (g *loopGuest) DeliverIRQ(vec int) { g.irqs = append(g.irqs, vec) }

func TestRunProgramCPUIDExit(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	c.VMPtrLoad(0, v)
	g := &loopGuest{acts: []Action{{Kind: ActInstr, Instr: isa.CPUID(1)}}}
	e := c.RunGuest(0, v, g, &RunState{})
	if e.Reason != isa.ExitCPUID || e.Qualification != 1 {
		t.Fatalf("exit = %v", e)
	}
	if v.Read(vmcs.ExitReasonF) != uint64(isa.ExitCPUID) {
		t.Fatal("exit not recorded in VMCS")
	}
	if c.Stats.ExitsByReason[isa.ExitCPUID] != 1 {
		t.Fatal("exit stats not counted")
	}
}

func TestRunProgramDone(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	g := &loopGuest{acts: []Action{{Kind: ActCompute, Dur: 500}}}
	e := c.RunGuest(0, v, g, &RunState{})
	if e.Reason != isa.ExitVMCall || e.Qualification != QualGuestDone {
		t.Fatalf("exit = %v", e)
	}
}

func TestBaselineTransitionCosts(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	g := &loopGuest{acts: nil} // immediately done
	start := c.Eng.Now()
	c.RunGuest(0, v, g, &RunState{})
	elapsed := c.Eng.Now() - start
	// One entry leg + one exit leg + the instr base of nothing.
	want := c.Costs.EntryLeg() + c.Costs.ExitLeg()
	if elapsed != want {
		t.Fatalf("transition cost = %v, want %v", elapsed, want)
	}
	if c.Stats.ThunkRegMoves != uint64(2*c.Costs.ThunkRegs) {
		t.Fatalf("thunk moves = %d", c.Stats.ThunkRegMoves)
	}
}

func TestBaselineRegisterSwap(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	v.GPRs[isa.RAX] = 42      // guest's saved RAX
	c.rf.Write(0, isa.RAX, 7) // host value
	g := &loopGuest{acts: []Action{{Kind: ActInstr, Instr: isa.CPUID(0)}}}
	c.RunGuest(0, v, g, &RunState{})
	// After the exit, the guest's RAX must be saved in the VMCS area and
	// the host's RAX restored.
	if v.GPRs[isa.RAX] != 42 {
		t.Fatalf("guest RAX = %d, want 42", v.GPRs[isa.RAX])
	}
	if c.ReadGPR(0, isa.RAX) != 7 {
		t.Fatalf("host RAX = %d, want 7", c.ReadGPR(0, isa.RAX))
	}
}

func TestSVtTransitionsStallResume(t *testing.T) {
	c := testCore(3)
	c.EnableSVt()
	v := newVMCS("vmcs01", 1)
	v.Write(vmcs.SVtVisor, 0)
	v.Write(vmcs.SVtVM, 1)
	c.VMPtrLoad(0, v)
	c.rf.Write(1, isa.RAX, 99) // resident guest register
	g := &loopGuest{acts: []Action{{Kind: ActInstr, Instr: isa.CPUID(0)}}}
	start := c.Eng.Now()
	e := c.RunGuest(1, v, g, &RunState{})
	if e.Reason != isa.ExitCPUID {
		t.Fatalf("exit = %v", e)
	}
	elapsed := c.Eng.Now() - start
	want := 2*c.Costs.StallResume + c.Costs.InstrCPUID
	if elapsed != want {
		t.Fatalf("SVt round trip = %v, want %v", elapsed, want)
	}
	if c.current != 0 {
		t.Fatalf("fetch target after exit = %d, want visor 0", c.current)
	}
	if c.Stats.StallResumes != 2 {
		t.Fatalf("stall/resumes = %d", c.Stats.StallResumes)
	}
	// Registers stayed resident: no thunk moves, value untouched.
	if c.Stats.ThunkRegMoves != 0 {
		t.Fatal("SVt must not run the register thunk")
	}
	if c.ReadGPR(1, isa.RAX) != 99 {
		t.Fatal("guest register must stay resident in its context")
	}
}

func TestCtxtAccessResolution(t *testing.T) {
	c := testCore(3)
	c.EnableSVt()
	v := newVMCS("vmcs01", 1)
	v.Write(vmcs.SVtVisor, 0)
	v.Write(vmcs.SVtVM, 1)
	v.Write(vmcs.SVtNested, 2)
	c.VMPtrLoad(0, v)
	c.rf.Write(1, isa.RBX, 11)
	c.rf.Write(2, isa.RBX, 22)

	// Host hypervisor (is_vm == 0): lvl 1 -> SVt_vm, lvl 2 -> SVt_nested.
	got, e := c.CtxtAccess(1, isa.RBX, false, 0)
	if e.Reason != isa.ExitNone || got != 11 {
		t.Fatalf("lvl1 = %d/%v", got, e)
	}
	got, e = c.CtxtAccess(2, isa.RBX, false, 0)
	if e.Reason != isa.ExitNone || got != 22 {
		t.Fatalf("lvl2 = %d/%v", got, e)
	}
	// Write path.
	if _, e = c.CtxtAccess(1, isa.RBX, true, 77); e.Reason != isa.ExitNone {
		t.Fatal(e)
	}
	if c.ReadGPR(1, isa.RBX) != 77 {
		t.Fatal("ctxtst did not land")
	}
	// Guest mode (is_vm == 1): lvl 1 -> SVt_nested.
	c.isVM = true
	got, e = c.CtxtAccess(1, isa.RBX, false, 0)
	if e.Reason != isa.ExitNone || got != 22 {
		t.Fatalf("guest lvl1 = %d/%v", got, e)
	}
	// Invalid combination traps.
	if _, e = c.CtxtAccess(2, isa.RBX, false, 0); e.Reason == isa.ExitNone {
		t.Fatal("guest lvl2 must trap for emulation")
	}
	if c.Stats.CtxtAccesses != 4 {
		t.Fatalf("ctxt accesses = %d", c.Stats.CtxtAccesses)
	}
}

func TestCtxtAccessWithoutSVtTraps(t *testing.T) {
	c := testCore(1)
	if _, e := c.CtxtAccess(1, isa.RAX, false, 0); e.Reason == isa.ExitNone {
		t.Fatal("ctxtld without SVt must trap")
	}
}

func TestExternalInterruptExit(t *testing.T) {
	c := testCore(1)
	eng := c.Eng
	l := x86port.Port().NewIRQ(0, eng)
	c.SetLAPIC(0, l)
	v := newVMCS("vmcs01", 1)
	eng.At(5000, func() { l.Deliver(ports.VecVirtioNet) })
	g := &loopGuest{acts: []Action{{Kind: ActCompute, Dur: 50_000}}}
	rs := &RunState{}
	e := c.RunGuest(0, v, g, rs)
	if e.Reason != isa.ExitExternalInterrupt || e.Vector != ports.VecVirtioNet {
		t.Fatalf("exit = %v", e)
	}
	if rs.ComputeLeft == 0 {
		t.Fatal("interrupted compute must retain its remainder")
	}
	// Resume: ack and run to completion.
	l.Ack(ports.VecVirtioNet)
	e = c.RunGuest(0, v, g, rs)
	if e.Reason != isa.ExitVMCall || e.Qualification != QualGuestDone {
		t.Fatalf("final exit = %v", e)
	}
	if got := eng.Now(); got < 50_000 {
		t.Fatalf("full compute must have run: now = %v", got)
	}
}

func TestInterruptExitMasksWhenPinControlOff(t *testing.T) {
	c := testCore(1)
	l := x86port.Port().NewIRQ(0, c.Eng)
	c.SetLAPIC(0, l)
	v := vmcs.New("vmcs01") // no ext-int exiting
	v.Write(vmcs.ProcControls, vmcs.ProcCtlHLTExit)
	l.Deliver(ports.VecVirtioNet)
	g := &loopGuest{acts: []Action{{Kind: ActCompute, Dur: 100}}}
	e := c.RunGuest(0, v, g, &RunState{})
	if e.Reason != isa.ExitVMCall {
		t.Fatalf("guest must run to completion when ext-int exiting off, got %v", e)
	}
}

func TestInjectionDelivery(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	v.Write(vmcs.EntryIntrInfo, InjectValid|uint64(ports.VecTimer))
	g := &loopGuest{acts: nil}
	c.RunGuest(0, v, g, &RunState{})
	if len(g.irqs) != 1 || g.irqs[0] != ports.VecTimer {
		t.Fatalf("injected irqs = %v", g.irqs)
	}
	if v.Read(vmcs.EntryIntrInfo) != 0 {
		t.Fatal("entry info must be consumed")
	}
	if c.Stats.InjectedIRQs != 1 {
		t.Fatal("injection not counted")
	}
}

func TestHLTExit(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	g := &loopGuest{acts: []Action{{Kind: ActInstr, Instr: isa.HLT()}}}
	e := c.RunGuest(0, v, g, &RunState{})
	if e.Reason != isa.ExitHLT {
		t.Fatalf("exit = %v", e)
	}
}

func TestMMIOExitAndMappedAccess(t *testing.T) {
	c := testCore(1)
	tbl := ept.New("ept01")
	if err := tbl.Map(0x1000, 0x8000, 4096, ept.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MapMisconfig(0xFE000000, 4096, 9); err != nil {
		t.Fatal(err)
	}
	c.RegisterEPT(0xE000, tbl)
	v := newVMCS("vmcs01", 1)
	v.Write(vmcs.EPTPointer, 0xE000)

	g := &loopGuest{acts: []Action{{Kind: ActInstr, Instr: isa.MMIOWrite(0xFE000000, 1)}}}
	e := c.RunGuest(0, v, g, &RunState{})
	if e.Reason != isa.ExitEPTMisconfig || e.GuestPA != 0xFE000000 || e.Qualification != 9 {
		t.Fatalf("exit = %v", e)
	}
	// Outside a device window, mapped RAM or not, an access is an EPT
	// violation carrying the address: guests reach memory through their
	// drivers' views, never by an instruction the core executes.
	for _, gpa := range []uint64{0x1008, 0x999000} {
		r := c.Exec(0, v, isa.MMIOWrite(gpa, 1234))
		if r.Exit.Reason != isa.ExitEPTViolation || r.Exit.GuestPA != gpa {
			t.Errorf("write at %#x: exit = %v", gpa, &r.Exit)
		}
	}
	// A VMCS whose EPT pointer names no table violates on every access.
	v.Write(vmcs.EPTPointer, 0xF000)
	if r := c.Exec(0, v, isa.MMIOWrite(0xFE000000, 1)); r.Exit.Reason != isa.ExitEPTViolation || r.Exit.GuestPA != 0xFE000000 {
		t.Fatalf("unregistered EPT: exit = %v", &r.Exit)
	}
}

// A trapped MMIO write is decided from the table's device regions before
// any translation, so the exit it raises allocates nothing.
func TestTrappedMMIOWriteAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	c := testCore(1)
	tbl := ept.New("ept01")
	if err := tbl.MapMisconfig(0xFE000000, 4096, 9); err != nil {
		t.Fatal(err)
	}
	c.RegisterEPT(0xE000, tbl)
	v := newVMCS("vmcs01", 1)
	v.Write(vmcs.EPTPointer, 0xE000)
	in := isa.MMIOWrite(0xFE000008, 1)
	got := allocs.PerRun(100, func() {
		if r := c.Exec(0, v, in); r.Exit.Reason != isa.ExitEPTMisconfig || r.Exit.Qualification != 9 {
			t.Fatalf("exit = %v", r.Exit)
		}
	})
	if got != 0 {
		t.Fatalf("a trapped MMIO write allocates %.2f times, want 0", got)
	}
}

func TestMSRBitmapExits(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	v.SetMSRExit(isa.MSRTSCDeadline)
	g := &loopGuest{acts: []Action{{Kind: ActInstr, Instr: isa.WRMSR(isa.MSRTSCDeadline, 999)}}}
	e := c.RunGuest(0, v, g, &RunState{})
	if e.Reason != isa.ExitMSRWrite || e.Qualification != uint64(isa.MSRTSCDeadline) || e.Value != 999 {
		t.Fatalf("exit = %v", e)
	}
	if r := c.Exec(0, v, isa.RDMSR(isa.MSRTSCDeadline)); r.Exit.Reason != isa.ExitMSRRead {
		t.Fatalf("rdmsr exit = %v", &r.Exit)
	}
}

// The core keeps no MSR state of its own, so an MSR access the bitmap
// does not trap is a model bug and panics naming the MSR.
func TestUntrappedMSRPanics(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	v.SetMSRExit(isa.MSRTSCDeadline)
	for _, in := range []isa.Instr{isa.RDMSR(isa.MSRFSBase), isa.WRMSR(isa.MSRFSBase, 0x7000)} {
		msg := panicOf(func() { c.Exec(0, v, in) })
		want := fmt.Sprintf("%v of MSR %#x not trapped", in.Op, isa.MSRFSBase)
		if !strings.Contains(msg, want) || !strings.Contains(msg, "vmcs01") {
			t.Errorf("%v: panic %q, want it to contain %q and the VMCS", in.Op, msg, want)
		}
	}
}

// The zero Instr is no instruction at all.
func TestZeroInstrPanics(t *testing.T) {
	c := testCore(1)
	msg := panicOf(func() { c.Exec(0, newVMCS("vmcs01", 1), isa.Instr{}) })
	if !strings.Contains(msg, "unknown op") {
		t.Fatalf("panic %q, want unknown op", msg)
	}
}

// panicOf runs f and returns what it panicked with, formatted; "" when
// it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestShadowedVMAccessNoExit(t *testing.T) {
	c := testCore(1)
	v01 := newVMCS("vmcs01'", 1)
	v12 := vmcs.New("vmcs12")
	v01.ShadowEnabled = true
	v01.Shadow = v12
	v12.Write(vmcs.GuestRIP, 0x1234)

	if r := c.Exec(0, v01, isa.Instr{Op: isa.OpVMRead, Addr: uint64(vmcs.GuestRIP)}); r.Exited() || r.Value != 0x1234 {
		t.Fatalf("shadowed vmread = %#x (exit %v)", r.Value, &r.Exit)
	}
	g := &loopGuest{acts: []Action{
		{Kind: ActInstr, Instr: isa.Instr{Op: isa.OpVMWrite, Addr: uint64(vmcs.GuestRSP), Val: 0x5678}},
		{Kind: ActInstr, Instr: isa.Instr{Op: isa.OpVMRead, Addr: uint64(vmcs.EPTPointer)}}, // not shadowable: exit
	}}
	e := c.RunGuest(0, v01, g, &RunState{})
	if e.Reason != isa.ExitVMRead || vmcs.Field(e.Qualification) != vmcs.EPTPointer {
		t.Fatalf("exit = %v", e)
	}
	if v12.Read(vmcs.GuestRSP) != 0x5678 {
		t.Fatal("shadowed vmwrite must land in the shadow VMCS")
	}
}

func TestNativeGuestSession(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	var observed []uint64
	g := NewNativeGuest("l1", c, 0, func(p *Port) {
		p.Charge(100)
		val := p.Exec(isa.CPUID(7)) // traps; hypervisor puts result in RAX
		observed = append(observed, val)
		p.Exec(isa.Instr{Op: isa.OpVMCall, Val: 0x77})
	})
	// First session: runs until the cpuid trap.
	e := c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitCPUID || e.Qualification != 7 {
		t.Fatalf("first exit = %v", e)
	}
	// "Emulate": the hypervisor writes the result into the saved RAX.
	v.GPRs[isa.RAX] = 0xFEED
	e = c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitVMCall || e.Qualification != 0x77 {
		t.Fatalf("second exit = %v", e)
	}
	if len(observed) != 1 || observed[0] != 0xFEED {
		t.Fatalf("guest observed %v", observed)
	}
	// Third session: body returns -> done exit.
	e = c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitVMCall || e.Qualification != QualGuestDone {
		t.Fatalf("final exit = %v", e)
	}
	select {
	case <-g.port.dead:
	case <-time.After(10 * time.Second):
		t.Fatal("guest goroutine still running after its body returned")
	}
}

func TestNativeGuestVirtualIRQ(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	g := NewNativeGuest("l1", c, 0, func(p *Port) {
		p.Exec(isa.CPUID(0))                 // trap so the hypervisor can inject
		p.Exec(isa.Instr{Op: isa.OpMonitor}) // boundary where the IRQ lands
		p.Exec(isa.Instr{Op: isa.OpVMCall, Val: 1})
	})
	var handled []int
	g.Port().VirtLAPIC = x86port.Port().NewIRQ(0, c.Eng)
	g.Port().IRQHandler = func(vec int) { handled = append(handled, vec) }

	e := c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitCPUID {
		t.Fatalf("exit = %v", e)
	}
	// Inject a vector like a hypervisor would.
	v.Write(vmcs.EntryIntrInfo, InjectValid|uint64(ports.VecVirtioBlk))
	e = c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitVMCall {
		t.Fatalf("exit = %v", e)
	}
	if len(handled) != 1 || handled[0] != ports.VecVirtioBlk {
		t.Fatalf("handled = %v", handled)
	}
}

func TestNativeGuestKill(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	g := NewNativeGuest("l1", c, 0, func(p *Port) {
		for {
			p.Exec(isa.CPUID(0))
		}
	})
	e := c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitCPUID {
		t.Fatalf("exit = %v", e)
	}
	g.Kill()
	select {
	case <-g.port.dead:
	default:
		t.Fatal("killed guest's goroutine still running")
	}
	g.Kill() // idempotent
}

func TestNativeGuestPhysicalIRQExit(t *testing.T) {
	c := testCore(1)
	l := x86port.Port().NewIRQ(0, c.Eng)
	c.SetLAPIC(0, l)
	v := newVMCS("vmcs01", 1)
	g := NewNativeGuest("l1", c, 0, func(p *Port) {
		p.Exec(isa.Instr{Op: isa.OpMonitor})
		p.Exec(isa.Instr{Op: isa.OpVMCall, Val: 2})
	})
	l.Deliver(ports.VecTimer)
	e := c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitExternalInterrupt || e.Vector != ports.VecTimer {
		t.Fatalf("exit = %v", e)
	}
	l.Ack(ports.VecTimer)
	e = c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitVMCall {
		t.Fatalf("exit = %v", e)
	}
	g.Kill()
}

// mustPanic runs fn and returns its panic message, failing the test if
// it returns normally.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want a panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

// TestNativeGuestTrapFromEngineContext: a guest action that traps while
// the guest's body is parked — as from an engine timer callback —
// panics naming the guest instead of waiting forever for a handoff.
func TestNativeGuestTrapFromEngineContext(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	g := NewNativeGuest("l2", c, 0, func(p *Port) {
		for {
			p.Exec(isa.CPUID(0))
		}
	})
	defer g.Kill()
	if e := c.RunGuest(0, v, g, nil); e.Reason != isa.ExitCPUID {
		t.Fatalf("exit = %v", e)
	}
	msg := mustPanic(t, func() { g.Port().Exec(isa.CPUID(1)) })
	if !strings.Contains(msg, "l2") || !strings.Contains(msg, "engine context") {
		t.Fatalf("panic %q must name the guest and the engine context", msg)
	}
}

// TestNativeGuestPanicReachesRunGuest: a panic in a guest body is
// re-raised to the caller of RunGuest, where one run can fail, instead
// of crashing the process from the body's goroutine.
func TestNativeGuestPanicReachesRunGuest(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	g := NewNativeGuest("l1", c, 0, func(p *Port) {
		p.Exec(isa.CPUID(0))
		panic("guest bug")
	})
	if e := c.RunGuest(0, v, g, nil); e.Reason != isa.ExitCPUID {
		t.Fatalf("exit = %v", e)
	}
	if msg := mustPanic(t, func() { c.RunGuest(0, v, g, nil) }); msg != "guest bug" {
		t.Fatalf("panic = %q", msg)
	}
	g.Kill() // the body is gone; Kill must not block
}

// TestEnableSVtInvariants: a 3-context core enters SVt mode only when
// asked, and its register file's rename maps are consistent once it has
// (the §3.4 promise that makes cross-context accesses well-defined).
func TestEnableSVtInvariants(t *testing.T) {
	c := testCore(3)
	if c.SVtEnabled() {
		t.Fatal("core must start outside SVt mode")
	}
	c.EnableSVt()
	if !c.SVtEnabled() {
		t.Fatal("core must be in SVt mode")
	}
	if err := c.RegFile().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
