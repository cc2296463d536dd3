package ports_test

import (
	"testing"

	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

// eachIRQ runs fn as a subtest per registered port, on a fresh
// controller bound to a fresh engine.
func eachIRQ(t *testing.T, fn func(t *testing.T, c ports.IRQController, eng *sim.Engine)) {
	for _, name := range ports.Names() {
		t.Run(name, func(t *testing.T) {
			eng := sim.New()
			fn(t, ports.Get(name).NewIRQ(0, eng), eng)
		})
	}
}

// timerFired reads the controller's timer_fired tally through its
// metrics.
func timerFired(c ports.IRQController) uint64 {
	r := obs.NewRegistry()
	c.Metrics(r, "irq")
	return r.Counter("irq.timer_fired").Value()
}

func TestEdgeCollapse(t *testing.T) {
	eachIRQ(t, func(t *testing.T, c ports.IRQController, _ *sim.Engine) {
		c.Deliver(ports.VecTimer)
		c.Deliver(ports.VecTimer)
		if c.Delivered() != 2 {
			t.Fatalf("delivered = %d", c.Delivered())
		}
		c.Ack(ports.VecTimer)
		if c.HasPending() {
			t.Fatal("duplicate delivery must collapse into one pending vector")
		}
	})
}

func TestOutOfRangeVectorIgnored(t *testing.T) {
	eachIRQ(t, func(t *testing.T, c ports.IRQController, _ *sim.Engine) {
		c.Deliver(-1)
		c.Deliver(300)
		c.DeliverDirect(256)
		if c.HasPending() || c.Delivered() != 0 {
			t.Fatal("out-of-range vectors must be dropped")
		}
		if c.Ack(-1) || c.Ack(300) {
			t.Fatal("out-of-range ack must fail")
		}
	})
}

func TestOnDeliverHook(t *testing.T) {
	eachIRQ(t, func(t *testing.T, c ports.IRQController, _ *sim.Engine) {
		var got []int
		c.SetOnDeliver(func(vec int) { got = append(got, vec) })
		c.Deliver(5)
		c.Deliver(5)
		c.DeliverDirect(6)
		if len(got) != 3 || got[0] != 5 || got[2] != 6 {
			t.Fatalf("hook calls = %v", got)
		}
	})
}

func TestTSCDeadline(t *testing.T) {
	eachIRQ(t, func(t *testing.T, c ports.IRQController, eng *sim.Engine) {
		c.SetDeadline(1000)
		if !c.TimerArmed() {
			t.Fatal("timer should be armed")
		}
		eng.RunUntil(999)
		if c.HasPending() {
			t.Fatal("timer fired early")
		}
		eng.RunUntil(1000)
		v, ok := c.PendingVector()
		if !ok || v != ports.VecTimer {
			t.Fatalf("timer vector = %#x,%v", v, ok)
		}
		if n := timerFired(c); n != 1 {
			t.Fatalf("fired = %d", n)
		}
		if c.TimerArmed() {
			t.Fatal("one-shot timer must disarm after firing")
		}
	})
}

func TestTSCDeadlineRearmReplaces(t *testing.T) {
	eachIRQ(t, func(t *testing.T, c ports.IRQController, eng *sim.Engine) {
		c.SetDeadline(1000)
		c.SetDeadline(2000) // replaces
		eng.RunUntil(1500)
		if c.HasPending() {
			t.Fatal("replaced deadline must not fire")
		}
		eng.RunUntil(2000)
		if !c.HasPending() {
			t.Fatal("new deadline must fire")
		}
		if n := timerFired(c); n != 1 {
			t.Fatalf("fired = %d, want 1", n)
		}
	})
}

func TestTSCDeadlineDisarm(t *testing.T) {
	eachIRQ(t, func(t *testing.T, c ports.IRQController, eng *sim.Engine) {
		c.SetDeadline(1000)
		c.SetDeadline(0) // disarm
		if c.TimerArmed() {
			t.Fatal("zero deadline must disarm")
		}
		eng.RunUntil(2000)
		if c.HasPending() {
			t.Fatal("disarmed timer fired")
		}
	})
}

func TestPastDeadlineFiresImmediately(t *testing.T) {
	eachIRQ(t, func(t *testing.T, c ports.IRQController, eng *sim.Engine) {
		eng.Advance(5000)
		c.SetDeadline(1000) // already past: clamps to now
		eng.DispatchDue()
		if !c.HasPending() {
			t.Fatal("past deadline must fire at once")
		}
	})
}
