package sim

// FaultOutcome is what a consulted fault site should do with the action
// it guards. The zero value means "no fault": proceed normally.
type FaultOutcome struct {
	// Drop loses the action entirely (a lost wakeup, a dropped vector, a
	// stalled ring push). The component decides what "lost" means — most
	// retry under a watchdog or degrade to a slower path.
	Drop bool
	// Delay defers the action by the given virtual duration (a late IRQ,
	// a slow completion). Zero means no added delay.
	Delay Time
}

// Faulty reports whether the outcome perturbs the action at all.
func (o FaultOutcome) Faulty() bool { return o.Drop || o.Delay > 0 }

// FaultInjector decides fault outcomes at named sites. The canonical
// implementation is fault.Plane; the engine carries the injector so
// every component with an engine reference can consult it without extra
// plumbing. Injectors must be deterministic functions of their seed and
// the consult sequence, so a failing run replays byte-identical.
type FaultInjector interface {
	InjectFault(site string) FaultOutcome
}

// SetFaults registers (or, with nil, removes) the engine's fault
// injector. With no injector registered every consult is free and
// returns the zero outcome, so fault-capable call sites cost nothing on
// healthy runs.
func (e *Engine) SetFaults(f FaultInjector) { e.faults = f }

// Inject consults the registered fault injector at a named site. It is
// the single entry point components use; a nil injector never fires.
func (e *Engine) Inject(site string) FaultOutcome {
	if e.faults == nil {
		return FaultOutcome{}
	}
	return e.faults.InjectFault(site)
}
