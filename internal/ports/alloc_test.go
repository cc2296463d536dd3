package ports_test

import (
	"testing"

	"svtsim/internal/ports"
	"svtsim/internal/race"
	"svtsim/internal/sim"
)

// Every nested interrupt crosses an IRQ controller several times, so a
// deliver/pending/ack cycle on each port's controller allocates nothing,
// through the fault plane's Deliver and through DeliverDirect alike.
func TestIRQDeliverAckAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, name := range ports.Names() {
		p := ports.Get(name)
		c := p.NewIRQ(0, sim.New())
		woken := 0
		c.SetOnDeliver(func(int) { woken++ })
		cycle := func() {
			c.Deliver(ports.VecVirtioNet)
			c.DeliverDirect(ports.VecVirtioBlk)
			for c.HasPending() {
				v, ok := c.PendingVector()
				if !ok || !c.Ack(v) {
					t.Fatalf("%s: pending vector %#x (%v) did not ack", name, v, ok)
				}
			}
		}
		cycle()
		if got := testing.AllocsPerRun(200, cycle); got != 0 {
			t.Errorf("%s: %.2f allocs per deliver/ack cycle, want 0", name, got)
		}
		if woken == 0 {
			t.Errorf("%s: OnDeliver never ran", name)
		}
	}
}
