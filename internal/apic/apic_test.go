package apic

import (
	"testing"

	"svtsim/internal/sim"
)

func TestDeliverAck(t *testing.T) {
	l := New(0, sim.New())
	if l.HasPending() {
		t.Fatal("fresh LAPIC must be idle")
	}
	l.Deliver(VecVirtioNet)
	v, ok := l.PendingVector()
	if !ok || v != VecVirtioNet {
		t.Fatalf("pending = %d,%v", v, ok)
	}
	if !l.Ack(VecVirtioNet) {
		t.Fatal("ack must succeed")
	}
	if l.HasPending() {
		t.Fatal("nothing should remain pending")
	}
	if l.Ack(VecVirtioNet) {
		t.Fatal("double ack must fail")
	}
}

func TestPriorityOrder(t *testing.T) {
	l := New(0, sim.New())
	l.Deliver(VecVirtioNet) // 0x24
	l.Deliver(VecTimer)     // 0xEC — higher
	v, _ := l.PendingVector()
	if v != VecTimer {
		t.Fatalf("highest vector must win, got %#x", v)
	}
	l.Ack(VecTimer)
	v, _ = l.PendingVector()
	if v != VecVirtioNet {
		t.Fatalf("next = %#x", v)
	}
}

func TestEdgeCollapse(t *testing.T) {
	l := New(0, sim.New())
	l.Deliver(VecTimer)
	l.Deliver(VecTimer)
	if l.Delivered() != 2 {
		t.Fatalf("delivered = %d", l.Delivered())
	}
	l.Ack(VecTimer)
	if l.HasPending() {
		t.Fatal("duplicate delivery must collapse into one pending bit")
	}
}

func TestOutOfRangeVectorIgnored(t *testing.T) {
	l := New(0, sim.New())
	l.Deliver(-1)
	l.Deliver(300)
	if l.HasPending() {
		t.Fatal("out-of-range vectors must be dropped")
	}
	if l.Ack(-1) || l.Ack(300) {
		t.Fatal("out-of-range ack must fail")
	}
}

func TestOnDeliverHook(t *testing.T) {
	l := New(0, sim.New())
	var got []int
	l.SetOnDeliver(func(vec int) { got = append(got, vec) })
	l.Deliver(5)
	l.Deliver(5)
	if len(got) != 2 || got[0] != 5 {
		t.Fatalf("hook calls = %v", got)
	}
}

func TestTSCDeadline(t *testing.T) {
	eng := sim.New()
	l := New(0, eng)
	l.SetTSCDeadline(1000)
	if !l.TimerArmed() {
		t.Fatal("timer should be armed")
	}
	eng.RunUntil(999)
	if l.HasPending() {
		t.Fatal("timer fired early")
	}
	eng.RunUntil(1000)
	v, ok := l.PendingVector()
	if !ok || v != VecTimer {
		t.Fatalf("timer vector = %#x,%v", v, ok)
	}
	if l.timerFired.Value() != 1 {
		t.Fatalf("fired = %d", l.timerFired.Value())
	}
	if l.TimerArmed() {
		t.Fatal("one-shot timer must disarm after firing")
	}
}

func TestTSCDeadlineRearmReplaces(t *testing.T) {
	eng := sim.New()
	l := New(0, eng)
	l.SetTSCDeadline(1000)
	l.SetTSCDeadline(2000) // replaces
	eng.RunUntil(1500)
	if l.HasPending() {
		t.Fatal("replaced deadline must not fire")
	}
	eng.RunUntil(2000)
	if !l.HasPending() {
		t.Fatal("new deadline must fire")
	}
	if l.timerFired.Value() != 1 {
		t.Fatalf("fired = %d, want 1", l.timerFired.Value())
	}
}

func TestTSCDeadlineDisarm(t *testing.T) {
	eng := sim.New()
	l := New(0, eng)
	l.SetTSCDeadline(1000)
	l.SetTSCDeadline(0) // disarm
	if l.TimerArmed() {
		t.Fatal("zero deadline must disarm")
	}
	eng.RunUntil(2000)
	if l.HasPending() {
		t.Fatal("disarmed timer fired")
	}
}

func TestPastDeadlineFiresImmediately(t *testing.T) {
	eng := sim.New()
	l := New(0, eng)
	eng.Advance(5000)
	l.SetTSCDeadline(1000) // already past: clamps to now
	eng.DispatchDue()
	if !l.HasPending() {
		t.Fatal("past deadline must fire at once")
	}
}
