package ports_test

import (
	"testing"

	"svtsim/internal/allocs"
	"svtsim/internal/fault"
	"svtsim/internal/ports"
	"svtsim/internal/race"
	"svtsim/internal/sim"
)

// Every nested interrupt crosses an IRQ controller several times, so a
// deliver/pending/ack cycle on each port's controller allocates nothing,
// through the fault plane's Deliver and through DeliverDirect alike. The
// other planes delay every device vector Deliver takes, or every second
// one, so the cycle also measures the delayed re-delivery event and its
// landing; with every=2 only some runs take that path, which the exact
// mean still counts.
func TestIRQDeliverAckAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, plane := range []string{"", "apic/irq:every=1,delay=1us", "apic/irq:every=2,delay=1us"} {
		for _, name := range ports.Names() {
			p := ports.Get(name)
			eng := sim.New()
			spec, err := fault.ParseSpec(plane, 1)
			if err != nil {
				t.Fatal(err)
			}
			spec.Build(eng)
			c := p.NewIRQ(0, eng)
			woken := 0
			c.SetOnDeliver(func(int) { woken++ })
			cycle := func() {
				c.Deliver(ports.VecVirtioNet)
				c.DeliverDirect(ports.VecVirtioBlk)
				eng.RunUntil(eng.Now() + sim.Microsecond)
				for c.HasPending() {
					v, ok := c.PendingVector()
					if !ok || !c.Ack(v) {
						t.Fatalf("%s %q: pending vector %#x (%v) did not ack", name, plane, v, ok)
					}
				}
			}
			cycle()
			if got := allocs.PerRun(200, cycle); got != 0 {
				t.Errorf("%s %q: %.2f allocs per deliver/ack cycle, want 0", name, plane, got)
			}
			if woken == 0 {
				t.Errorf("%s %q: OnDeliver never ran", name, plane)
			}
			if delayed := c.Delayed(); (plane != "") != (delayed > 0) || c.Dropped() != 0 {
				t.Errorf("%s %q: %d vectors delayed, %d dropped", name, plane, delayed, c.Dropped())
			}
			if want := uint64(2 * 202); c.Delivered() != want {
				t.Errorf("%s %q: %d vectors delivered, want %d", name, plane, c.Delivered(), want)
			}
		}
	}
}
