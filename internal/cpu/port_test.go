package cpu

import (
	"fmt"
	"strings"
	"testing"

	"svtsim/internal/isa"
	"svtsim/internal/ports"
	x86port "svtsim/internal/ports/x86"
	"svtsim/internal/sim"
)

func TestPortComputeInterruptible(t *testing.T) {
	c := testCore(1)
	l := x86port.Port().NewIRQ(0, c.Eng)
	c.SetLAPIC(0, l)
	v := newVMCS("vmcs01", 1)
	c.Eng.At(5_000, func() { l.Deliver(ports.VecTimer) })

	var resumedAt sim.Time
	g := NewNativeGuest("g", c, 0, func(p *Port) {
		p.Compute(20_000)
		resumedAt = p.Now()
		p.Exec(isa.Instr{Op: isa.OpVMCall, Val: 1})
	})
	// First session: the compute block is interrupted by the timer.
	e := c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitExternalInterrupt {
		t.Fatalf("exit = %v", e)
	}
	if c.Eng.Now() < 5_000 || c.Eng.Now() > 6_000 {
		t.Fatalf("interrupted at %v, want ≈5us", c.Eng.Now())
	}
	l.Ack(ports.VecTimer)
	// Resume: the remaining compute must finish in full.
	e = c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitVMCall {
		t.Fatalf("exit = %v", e)
	}
	if resumedAt < 20_000 {
		t.Fatalf("compute ended at %v, want >= 20us (no lost work)", resumedAt)
	}
	g.Kill()
}

func TestPortComputeRunsVirtualHandlers(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	var handled []int
	g := NewNativeGuest("g", c, 0, func(p *Port) {
		p.Compute(10_000)
		p.Exec(isa.Instr{Op: isa.OpVMCall, Val: 1})
	})
	g.Port().VirtLAPIC = x86port.Port().NewIRQ(0, c.Eng)
	g.Port().IRQHandler = func(vec int) { handled = append(handled, vec) }
	c.Eng.At(3_000, func() { g.Port().VirtLAPIC.Deliver(7) })
	e := c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitVMCall {
		t.Fatalf("exit = %v", e)
	}
	if len(handled) != 1 || handled[0] != 7 {
		t.Fatalf("virtual handler runs = %v", handled)
	}
	g.Kill()
}

func TestExecHLTSkipsWhenPending(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	g := NewNativeGuest("g", c, 0, func(p *Port) {
		p.VirtLAPIC.Deliver(9) // a wakeup is already pending
		p.ExecHLT()            // must NOT sleep or exit
		p.Exec(isa.Instr{Op: isa.OpVMCall, Val: 2})
	})
	g.Port().VirtLAPIC = x86port.Port().NewIRQ(0, c.Eng)
	e := c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitVMCall || e.Qualification != 2 {
		t.Fatalf("exit = %v — the HLT must have completed immediately", e)
	}
	g.Kill()
}

func TestParkIsFree(t *testing.T) {
	c := testCore(1)
	v := newVMCS("vmcs01", 1)
	g := NewNativeGuest("g", c, 0, func(p *Port) {
		for {
			p.Park()
		}
	})
	// Enter once (pays the entry leg), then park/resume cycles are free.
	e := c.RunGuest(0, v, g, nil)
	if e.Reason != isa.ExitVMCall || e.Qualification != QualSVtIdle {
		t.Fatalf("exit = %v", e)
	}
	// Every resume returns the park marker, never a VM exit, and no
	// exit leg is charged.
	before := c.Eng.Now()
	for i := 0; i < 10; i++ {
		e = c.RunGuest(0, v, g, nil)
		if e.Reason != isa.ExitVMCall || e.Qualification != QualSVtIdle {
			t.Fatalf("exit = %v, want the mwait park marker", e)
		}
	}
	if c.Eng.Now() != before {
		t.Fatalf("mwait park/resume cost time: %v", c.Eng.Now()-before)
	}
	g.Kill()
}

// Two vCPUs of one guest kernel: an action issued on the parked one's
// port runs on the sibling that holds the handoff, and with both bodies
// parked it stays on its own port and fails naming it.
func TestPortSiblingForwarding(t *testing.T) {
	c := testCore(2)
	va, vb := newVMCS("vmcs-a", 1), newVMCS("vmcs-b", 1)
	var a, b *NativeGuest
	a = NewNativeGuest("a", c, 0, func(p *Port) {
		for {
			p.Park()
		}
	})
	b = NewNativeGuest("b", c, 1, func(p *Port) {
		a.Port().Exec(isa.Instr{Op: isa.OpVMCall, Val: 7})
		var handled []int
		p.IRQHandler = func(vec int) { handled = append(handled, vec) }
		p.VirtLAPIC.Deliver(9)
		a.Port().PollIRQs()
		p.Exec(isa.Instr{Op: isa.OpVMCall, Val: uint64(len(handled))})
	})
	a.Port().Sibling, b.Port().Sibling = b.Port(), a.Port()
	b.Port().VirtLAPIC = x86port.Port().NewIRQ(1, c.Eng)
	if e := c.RunGuest(0, va, a, nil); e.Qualification != QualSVtIdle {
		t.Fatalf("a did not park: %v", e)
	}
	if e := c.RunGuest(1, vb, b, nil); e.Reason != isa.ExitVMCall || e.Qualification != 7 {
		t.Fatalf("b's session exit = %v, want the VMCALL issued on a's port", e)
	}
	if e := c.RunGuest(1, vb, b, nil); e.Reason != isa.ExitVMCall || e.Qualification != 1 {
		t.Fatalf("b handled %d vectors polled on a's port, want 1 (exit %v)", e.Qualification, e)
	}
	msg := func() (r any) {
		defer func() { r = recover() }()
		a.Port().Exec(isa.Instr{Op: isa.OpVMCall})
		return nil
	}()
	if s := fmt.Sprint(msg); !strings.Contains(s, "cpu: a traps") {
		t.Fatalf("action with both bodies parked: panic %q, want one naming a", s)
	}
	a.Kill()
	b.Kill()
}

func TestCoreString(t *testing.T) {
	c := testCore(2)
	if c.String() == "" {
		t.Fatal("core must render")
	}
}
