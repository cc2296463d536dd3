package hv

import (
	"strings"
	"testing"

	"svtsim/internal/allocs"
	"svtsim/internal/cost"
	"svtsim/internal/cpu"
	"svtsim/internal/isa"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	x86port "svtsim/internal/ports/x86"
	"svtsim/internal/race"
	"svtsim/internal/sim"
	"svtsim/internal/vmcs"
)

func testStack() (*Hypervisor, *cpu.Core, *sim.Engine) {
	eng := sim.New()
	m := cost.Baseline()
	c := cpu.New(eng, &m, 1)
	c.SetLAPIC(0, x86port.Port().NewIRQ(0, eng))
	h := New("L0", NewRealPlatform(c), &m, 0, ModeBaseline)
	return h, c, eng
}

func guestVMCS() *vmcs.VMCS {
	v := vmcs.New("vmcs01")
	v.VMLevel = 1
	v.Write(vmcs.PinControls, vmcs.PinCtlExtIntExit)
	v.Write(vmcs.ProcControls, vmcs.ProcCtlHLTExit|vmcs.ProcCtlUseMSRBitmap)
	return v
}

// scriptGuest runs a fixed action list.
type scriptGuest struct {
	acts []cpu.Action
	i    int
	irqs []int
}

func (g *scriptGuest) Step() cpu.Action {
	if g.i >= len(g.acts) {
		return cpu.Action{Kind: cpu.ActDone}
	}
	a := g.acts[g.i]
	g.i++
	return a
}
func (g *scriptGuest) DeliverIRQ(vec int) { g.irqs = append(g.irqs, vec) }

func TestModeStrings(t *testing.T) {
	if ModeBaseline.String() != "baseline" || ModeSWSVt.String() != "sw-svt" || ModeHWSVt.String() != "hw-svt" {
		t.Fatal("mode names")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must render")
	}
}

// TestModeShape pins each mode's answers to "HW SVt?" and "how many
// host threads?".
func TestModeShape(t *testing.T) {
	for _, c := range []struct {
		mode    Mode
		hw      bool
		threads int
	}{
		{ModeBaseline, false, 1},
		{ModeSWSVt, false, 2},
		{ModeHWSVt, true, 1},
		{ModeHWSVtBypass, true, 1},
	} {
		if c.mode.HWSVt() != c.hw || c.mode.Threads() != c.threads {
			t.Errorf("%v: HWSVt()=%v Threads()=%d, want %v, %d",
				c.mode, c.mode.HWSVt(), c.mode.Threads(), c.hw, c.threads)
		}
	}
}

func TestCPUIDEmulationResultInRAX(t *testing.T) {
	h, _, _ := testStack()
	g := &scriptGuest{acts: []cpu.Action{{Kind: cpu.ActInstr, Instr: isa.CPUID(5)}}}
	vc := NewVCPU("g", 0, guestVMCS(), g, 1)
	vc.VMCS.GPRs[isa.RAX] = 5 // the leaf the guest requested
	h.RunLoop(vc)             // returns once the guest is done
	if vc.VMCS.GPRs[isa.RAX] == 5 {
		t.Fatal("cpuid emulation must replace RAX")
	}
	if h.Prof.Count[isa.ExitCPUID] != 1 {
		t.Fatal("profile must count the exit")
	}
	if got := vc.VMCS.Read(vmcs.GuestRIP); got == 0 {
		t.Fatal("RIP must advance past the emulated instruction")
	}
}

func TestMSRStoreRoundTrip(t *testing.T) {
	h, _, _ := testStack()
	var readBack uint64
	g := &scriptGuest{acts: []cpu.Action{
		{Kind: cpu.ActInstr, Instr: isa.WRMSR(isa.MSRSpecCtrl, 0x42)},
		{Kind: cpu.ActInstr, Instr: isa.RDMSR(isa.MSRSpecCtrl)},
	}}
	vc := NewVCPU("g", 0, guestVMCS(), g, 1)
	// Without a configured bitmap entry both accesses exit... the VMCS has
	// UseMSRBitmap, so mark this MSR as exiting.
	vc.VMCS.SetMSRExit(isa.MSRSpecCtrl)
	h.RunLoop(vc)
	readBack = vc.VMCS.GPRs[isa.RAX]
	if readBack != 0x42 {
		t.Fatalf("MSR read-back = %#x, want 0x42", readBack)
	}
	if h.Prof.Count[isa.ExitMSRWrite] != 1 || h.Prof.Count[isa.ExitMSRRead] != 1 {
		t.Fatal("MSR exits not counted")
	}
}

func TestTimerVirtualization(t *testing.T) {
	h, c, eng := testStack()
	fired := []int{}
	g := &scriptGuest{acts: []cpu.Action{
		{Kind: cpu.ActInstr, Instr: isa.WRMSR(isa.MSRTSCDeadline, 5000)},
		{Kind: cpu.ActCompute, Dur: 20_000},
	}}
	vc := NewVCPU("g", 0, guestVMCS(), g, 1)
	vc.VMCS.SetMSRExit(isa.MSRTSCDeadline)
	vc.VirtLAPIC = x86port.Port().NewIRQ(0, eng)
	h.RunLoop(vc)
	fired = g.irqs
	if len(fired) != 1 || fired[0] != ports.VecTimer {
		t.Fatalf("guest timer irqs = %v", fired)
	}
	if eng.Now() < 20_000 {
		t.Fatal("compute must have completed")
	}
	_ = c
}

// L0 emulates every TSC-deadline write by re-arming the platform timer,
// so arming, re-arming and expiring it allocate nothing once warm.
func TestTimerArmAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	_, c, eng := testStack()
	p := NewRealPlatform(c)
	vc := NewVCPU("g", 0, guestVMCS(), &scriptGuest{}, 1)
	cycle := func() {
		p.SetTimer(vc, eng.Now()+100)
		p.SetTimer(vc, eng.Now()+200)
		eng.RunUntil(eng.Now() + 200)
		if !c.LAPIC(0).Ack(vecTimer) {
			t.Fatal("the timer did not deliver its vector")
		}
		if c.LAPIC(0).HasPending() || len(p.timers) != 0 {
			t.Fatal("the replaced arm fired too, or the expired timer is still listed")
		}
	}
	cycle()
	if got := allocs.PerRun(200, cycle); got != 0 {
		t.Fatalf("%.2f allocs per timer arm/re-arm/expiry, want 0", got)
	}
}

func TestHLTWakesOnInterrupt(t *testing.T) {
	h, _, eng := testStack()
	g := &scriptGuest{acts: []cpu.Action{
		{Kind: cpu.ActInstr, Instr: isa.WRMSR(isa.MSRTSCDeadline, 3000)},
		{Kind: cpu.ActInstr, Instr: isa.HLT()},
		{Kind: cpu.ActCompute, Dur: 10},
	}}
	vc := NewVCPU("g", 0, guestVMCS(), g, 1)
	vc.VMCS.SetMSRExit(isa.MSRTSCDeadline)
	vc.VirtLAPIC = x86port.Port().NewIRQ(0, eng)
	h.RunLoop(vc)
	if h.DeadlockDetected {
		t.Fatal("halt must wake on the timer")
	}
	if eng.Now() < 3000 {
		t.Fatalf("woke too early: %v", eng.Now())
	}
	if len(g.irqs) == 0 {
		t.Fatal("the timer vector must be injected after wake")
	}
}

func TestDeadlockDetection(t *testing.T) {
	h, _, _ := testStack()
	g := &scriptGuest{acts: []cpu.Action{{Kind: cpu.ActInstr, Instr: isa.HLT()}}}
	vc := NewVCPU("g", 0, guestVMCS(), g, 1)
	h.RunLoop(vc)
	if !h.DeadlockDetected {
		t.Fatal("halting with no pending events must be detected")
	}
}

func TestDeviceDispatchAndUnknownDevicePanics(t *testing.T) {
	h, _, _ := testStack()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown device must panic")
		}
	}()
	vc := NewVCPU("g", 0, guestVMCS(), nil, 1)
	h.Handle(vc, isa.Exit{Reason: isa.ExitEPTMisconfig, Qualification: 99, GuestPA: 0xF000})
}

// The model has no INVEPT: a guest hypervisor never issues one, so an
// INVEPT exit reaching L0 is unhandled and panics with its name.
func TestUnhandledINVEPTPanics(t *testing.T) {
	h, _, _ := testStack()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "unhandled exit") || !strings.Contains(msg, "INVEPT") {
			t.Fatalf("recovered %q, want an unhandled-exit panic naming INVEPT", msg)
		}
	}()
	vc := NewVCPU("g", 0, guestVMCS(), nil, 1)
	h.Handle(vc, isa.Exit{Reason: isa.ExitINVEPT})
}

type fakeDev struct {
	writes []uint64
	irqs   int
}

func (d *fakeDev) MMIOWrite(gpa, val uint64) { d.writes = append(d.writes, val) }
func (d *fakeDev) OnIRQ()                    { d.irqs++ }

func TestKernelIRQDispatch(t *testing.T) {
	h, _, eng := testStack()
	dev := &fakeDev{}
	h.VectorToDevice[0x40] = dev
	target := NewVCPU("t", 0, guestVMCS(), nil, 1)
	target.VirtLAPIC = x86port.Port().NewIRQ(0, eng)
	h.VectorRoute[0x41] = target

	h.HandleKernelIRQ(0x40)
	if dev.irqs != 1 {
		t.Fatal("device completion must run")
	}
	h.HandleKernelIRQ(0x41)
	if !target.VirtLAPIC.HasPending() {
		t.Fatal("vector must route to the target vCPU")
	}
}

func TestProfileShare(t *testing.T) {
	var p Profile
	if p.Share(isa.ExitCPUID) != 0 {
		t.Fatal("empty profile share must be 0")
	}
	p.Time[isa.ExitCPUID] = 30
	p.Time[isa.ExitHLT] = 70
	p.Total = 100
	if p.Share(isa.ExitCPUID) != 0.3 {
		t.Fatal("share arithmetic wrong")
	}
}

func TestMaybeInjectOnlyOnce(t *testing.T) {
	h, _, eng := testStack()
	vc := NewVCPU("g", 0, guestVMCS(), nil, 1)
	vc.VirtLAPIC = x86port.Port().NewIRQ(0, eng)
	vc.VirtLAPIC.Deliver(0x31)
	vc.VirtLAPIC.Deliver(0x32)
	h.PrepareResume(vc)
	info := vc.VMCS.Read(vmcs.EntryIntrInfo)
	if info&cpu.InjectValid == 0 {
		t.Fatal("injection must latch")
	}
	// A second prepare with the field still latched must not overwrite.
	h.PrepareResume(vc)
	if vc.VMCS.Read(vmcs.EntryIntrInfo) != info {
		t.Fatal("latched injection overwritten")
	}
	if !vc.VirtLAPIC.HasPending() {
		t.Fatal("the second vector must stay pending")
	}
}

func TestTraceRecordsExits(t *testing.T) {
	h, _, _ := testStack()
	tr := obs.NewTracer(1, 4)
	h.SetObs(tr)
	g := &scriptGuest{acts: []cpu.Action{
		{Kind: cpu.ActInstr, Instr: isa.CPUID(1)},
		{Kind: cpu.ActInstr, Instr: isa.CPUID(2)},
	}}
	vc := NewVCPU("g", 0, guestVMCS(), g, 1)
	h.RunLoop(vc)
	if tr.Total() < 3 { // 2 cpuids + the done vmcall
		t.Fatalf("tracer recorded %d exits", tr.Total())
	}
	if h.obs != tr {
		t.Fatal("tracer not attached")
	}
}

// The exit span lands on the vCPU's hardware-context track with its
// virtualization level and the vCPU's name as its label.
func TestTraceExitEmitsToObs(t *testing.T) {
	h, _, _ := testStack()
	ot := obs.NewTracer(2, 16)
	h.SetObs(ot)
	g := &scriptGuest{acts: []cpu.Action{
		{Kind: cpu.ActInstr, Instr: isa.CPUID(1)},
	}}
	vc := NewVCPU("g", 0, guestVMCS(), g, 1)
	h.RunLoop(vc)

	var sawCPUID bool
	ot.Ring(0).Do(func(e obs.Event) {
		if e.Kind == obs.KindVMExit && isa.ExitReason(e.Arg1) == isa.ExitCPUID {
			sawCPUID = true
			if e.Level != 1 {
				t.Errorf("CPUID exit at level %d, want 1", e.Level)
			}
			if ot.Lookup(e.Label) != "g" {
				t.Errorf("label = %q, want vCPU name", ot.Lookup(e.Label))
			}
		}
	})
	if !sawCPUID {
		t.Fatal("no CPUID vmexit span on the vCPU's context track")
	}
}

// TestSVtVMCSFields checks the SVt fields the two VMCS constructors
// write in every mode: under HW SVt vmcs01 names the visor, guest and
// nested contexts and vmcs02 resumes the visor from the nested context
// with SVt_nested invalid (§4); the other modes leave every field
// invalid.
func TestSVtVMCSFields(t *testing.T) {
	for _, mode := range AllModes() {
		hw := mode == ModeHWSVt || mode == ModeHWSVtBypass
		v01 := NewVisorVMCS("vmcs01", 0, mode)
		_, v02 := NewNestedVMCSPair(mode)
		got := [...]uint64{
			v01.Read(vmcs.SVtVisor), v01.Read(vmcs.SVtVM), v01.Read(vmcs.SVtNested),
			v02.Read(vmcs.SVtVisor), v02.Read(vmcs.SVtVM), v02.Read(vmcs.SVtNested),
		}
		const none = vmcs.InvalidContext
		want := [...]uint64{none, none, none, none, none, none}
		if hw {
			want = [...]uint64{0, 1, 2, 0, 2, none}
		}
		if got != want {
			t.Errorf("%v: vmcs01/vmcs02 SVt fields %v, want %v", mode, got, want)
		}
	}
}

// TestCrossContextAccessThroughSVtLayout: with vmcs01 built for HW SVt,
// the visor reaches both subordinate contexts' registers via
// ctxtld/ctxtst with the virtualized level argument (§4's "Configuring
// L1 and Cross-Context Register Access" walk-through).
func TestCrossContextAccessThroughSVtLayout(t *testing.T) {
	m := cost.Baseline()
	c := cpu.New(sim.New(), &m, 3)
	c.EnableSVt()
	c.VMPtrLoad(cpu.VisorContext, NewVisorVMCS("vmcs01", 0, ModeHWSVt))

	c.RegFile().Write(int(cpu.GuestContext), isa.RDX, 0x11)
	c.RegFile().Write(int(cpu.NestedContext), isa.RDX, 0x22)
	got, exit := c.CtxtAccess(1, isa.RDX, false, 0)
	if exit.Reason != isa.ExitNone || got != 0x11 {
		t.Fatalf("lvl1 read = %#x / %v", got, exit)
	}
	got, exit = c.CtxtAccess(2, isa.RDX, false, 0)
	if exit.Reason != isa.ExitNone || got != 0x22 {
		t.Fatalf("lvl2 read = %#x / %v", got, exit)
	}
	if _, exit = c.CtxtAccess(1, isa.RDX, true, 0x99); exit.Reason != isa.ExitNone {
		t.Fatalf("lvl1 write trapped: %v", exit)
	}
	if c.ReadGPR(cpu.GuestContext, isa.RDX) != 0x99 {
		t.Fatal("ctxtst did not land in the guest context")
	}
	if err := c.RegFile().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGuestGPRAccessUsesCtxtUnderSVt: under SVt, L0 reaches a stopped
// guest's registers with ctxtld/ctxtst on the guest's live context, not
// through the save area the baseline exit thunk fills (§4).
func TestGuestGPRAccessUsesCtxtUnderSVt(t *testing.T) {
	m := cost.Baseline()
	c := cpu.New(sim.New(), &m, 3)
	c.EnableSVt()
	c.VMPtrLoad(cpu.VisorContext, NewVisorVMCS("vmcs01", 0, ModeHWSVt))
	p := NewRealPlatform(c)
	vc := NewVCPU("L1.vcpu0", cpu.GuestContext, guestVMCS(), nil, 1)

	c.RegFile().Write(int(cpu.GuestContext), isa.RDX, 0x11)
	vc.VMCS.GPRs[isa.RDX] = 0x99 // a stale save area
	if got := p.ReadGuestGPR(vc, isa.RDX); got != 0x11 {
		t.Fatalf("ctxtld read = %#x, want the live register 0x11", got)
	}
	p.WriteGuestGPR(vc, isa.RBX, 0x22)
	if got := c.ReadGPR(cpu.GuestContext, isa.RBX); got != 0x22 || vc.VMCS.GPRs[isa.RBX] != 0 {
		t.Fatalf("ctxtst: live register %#x, save area %#x", got, vc.VMCS.GPRs[isa.RBX])
	}
	if c.Stats.CtxtAccesses != 2 {
		t.Fatalf("ctxt accesses = %d, want 2", c.Stats.CtxtAccesses)
	}
}
