package apic

import (
	"testing"

	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

func TestDeliverAck(t *testing.T) {
	l := ports.NewIRQ[IRR](sim.New())
	if l.HasPending() {
		t.Fatal("fresh LAPIC must be idle")
	}
	l.Deliver(ports.VecVirtioNet)
	v, ok := l.PendingVector()
	if !ok || v != ports.VecVirtioNet {
		t.Fatalf("pending = %d,%v", v, ok)
	}
	if !l.Ack(ports.VecVirtioNet) {
		t.Fatal("ack must succeed")
	}
	if l.HasPending() {
		t.Fatal("nothing should remain pending")
	}
	if l.Ack(ports.VecVirtioNet) {
		t.Fatal("double ack must fail")
	}
}

func TestPriorityOrder(t *testing.T) {
	l := ports.NewIRQ[IRR](sim.New())
	l.Deliver(ports.VecVirtioNet) // 0x24
	l.Deliver(ports.VecTimer)     // 0xEC — higher
	v, _ := l.PendingVector()
	if v != ports.VecTimer {
		t.Fatalf("highest vector must win, got %#x", v)
	}
	l.Ack(ports.VecTimer)
	v, _ = l.PendingVector()
	if v != ports.VecVirtioNet {
		t.Fatalf("next = %#x", v)
	}
}
