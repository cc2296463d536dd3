package sim

import (
	"fmt"
	"strings"
)

// This file implements the engine-level deadlock/livelock detector: a
// simulation that dispatches an unbounded number of events without
// virtual time advancing is livelocked (two components waking each other
// at the same instant forever), and a simulation whose queue runs dry
// while execution contexts still wait on each other is deadlocked. In
// both cases the engine assembles a structured report from registered
// probes — ring occupancy, per-context state, pending interrupts — so a
// stuck run fails loudly with the machine state attached instead of
// hanging the test binary.

// Probe is a named state dumper a component registers with the engine;
// probes run only when a report is assembled.
type Probe struct {
	Name string
	Fn   func() string
}

// ProbeResult is one probe's contribution to a report.
type ProbeResult struct {
	Name  string
	State string
}

// StallReport is the structured report the detector produces.
type StallReport struct {
	// Reason distinguishes a livelock ("virtual time stopped advancing")
	// from a deadlock ("no runnable events remain").
	Reason string
	// Now is the virtual time the simulation stalled at.
	Now Time
	// Dispatched is the engine's lifetime event count at detection.
	Dispatched uint64
	// SameInstant is how many events fired at Now without the clock
	// moving (livelock detection only).
	SameInstant uint64
	Probes      []ProbeResult
}

// String renders the report for panics and logs.
func (r *StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s at t=%v (dispatched=%d, same-instant=%d)",
		r.Reason, r.Now, r.Dispatched, r.SameInstant)
	for _, p := range r.Probes {
		fmt.Fprintf(&b, "\n  [%s] %s", p.Name, p.State)
	}
	return b.String()
}

// AddProbe registers a state dumper included in stall/deadlock reports.
func (e *Engine) AddProbe(name string, fn func() string) {
	e.probes = append(e.probes, Probe{Name: name, Fn: fn})
}

// SetStallLimit arms the livelock detector: if more than n events
// dispatch at one virtual instant without the clock advancing, the
// engine panics with a StallReport's text. Zero disarms the detector.
func (e *Engine) SetStallLimit(n uint64) { e.stallLimit = n }

// Report assembles a StallReport with the given reason from the current
// engine state and all registered probes. Components that detect their
// own flavour of deadlock (an idle loop with an empty queue, a watchdog
// that exhausted its retries) use it to fail with full machine state.
func (e *Engine) Report(reason string) *StallReport {
	r := &StallReport{
		Reason:      reason,
		Now:         e.now,
		Dispatched:  e.dispatched,
		SameInstant: e.stallCount,
	}
	for _, p := range e.probes {
		r.Probes = append(r.Probes, ProbeResult{Name: p.Name, State: p.Fn()})
	}
	return r
}

// noteDispatch feeds the livelock detector; called once per fired event.
func (e *Engine) noteDispatch() {
	if e.now != e.stallAt {
		e.stallAt = e.now
		e.stallCount = 0
	}
	e.stallCount++
	if e.stallLimit == 0 || e.stallCount < e.stallLimit {
		return
	}
	panic(e.Report("virtual time stopped advancing (livelock)").String())
}
