package sim

import (
	"strings"
	"testing"
)

// stallPanic runs fn and returns the message it panicked with, or ""
// if it returned normally.
func stallPanic(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = r.(string)
		}
	}()
	fn()
	return ""
}

func TestLivelockDetectorFires(t *testing.T) {
	e := New()
	e.SetStallLimit(100)
	e.AddProbe("ring", func() string { return "occupancy=3/64" })

	// Two events that reschedule each other at the same instant forever:
	// the classic zero-delay wakeup loop.
	var ping func()
	ping = func() { e.At(e.Now(), ping) }
	e.At(0, ping)
	s := stallPanic(func() { e.Drain(10_000) })

	if s == "" {
		t.Fatal("livelock detector never fired")
	}
	if !strings.Contains(s, "same-instant=100") {
		t.Fatalf("detector did not fire at the 100th same-instant dispatch:\n%s", s)
	}
	if !strings.Contains(s, "livelock") || !strings.Contains(s, "occupancy=3/64") {
		t.Fatalf("report missing reason or probe state:\n%s", s)
	}
}

func TestLivelockDetectorIgnoresAdvancingTime(t *testing.T) {
	e := New()
	e.SetStallLimit(10)

	// Many events, but each at its own instant: healthy simulation.
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 1000 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	if s := stallPanic(func() { e.Drain(10_000) }); s != "" {
		t.Fatalf("detector fired on a time-advancing run:\n%s", s)
	}
	if n != 1000 {
		t.Fatalf("expected 1000 ticks, got %d", n)
	}
}

func TestDefaultStallHandlerPanicsWithReport(t *testing.T) {
	e := New()
	e.SetStallLimit(10)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from default stall handler")
		}
		if !strings.Contains(r.(string), "virtual time stopped advancing") {
			t.Fatalf("panic missing report: %v", r)
		}
	}()
	var loop func()
	loop = func() { e.At(e.Now(), loop) }
	e.At(0, loop)
	e.Drain(1_000)
}

func TestReportCollectsProbes(t *testing.T) {
	e := New()
	e.AddProbe("a", func() string { return "state-a" })
	e.AddProbe("b", func() string { return "state-b" })
	r := e.Report("no runnable events remain (deadlock)")
	if len(r.Probes) != 2 || r.Probes[0].State != "state-a" || r.Probes[1].State != "state-b" {
		t.Fatalf("probes not collected: %+v", r.Probes)
	}
	if !strings.Contains(r.String(), "deadlock") {
		t.Fatalf("reason missing: %s", r.String())
	}
}

type constInjector struct{ out FaultOutcome }

func (c constInjector) InjectFault(string) FaultOutcome { return c.out }

func TestEngineInjectDefaultsToNoFault(t *testing.T) {
	e := New()
	if out := e.Inject("any/site"); out.Faulty() {
		t.Fatalf("nil injector produced a fault: %+v", out)
	}
	e.SetFaults(constInjector{FaultOutcome{Drop: true}})
	if out := e.Inject("any/site"); !out.Drop {
		t.Fatal("registered injector not consulted")
	}
	e.SetFaults(nil)
	if out := e.Inject("any/site"); out.Faulty() {
		t.Fatal("deregistered injector still consulted")
	}
}
