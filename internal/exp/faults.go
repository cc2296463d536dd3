package exp

import (
	"context"
	"fmt"

	"svtsim/internal/cpu"
	"svtsim/internal/fault"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/sim"
)

// FaultSweepResult is one fault-injection run: the workload outcome plus
// every recovery counter the fault plane exercised.
type FaultSweepResult struct {
	Mode      hv.Mode
	Spec      string
	Seed      int64
	N         int
	Total     sim.Time
	PerOp     sim.Time
	Completed bool

	Reflections         uint64
	WatchdogFires       uint64
	Fallbacks           uint64
	FallbackReflections uint64
	BreakerTrips        uint64
	BreakerRecoveries   uint64
	SWFallbacks         uint64
	FaultFires          uint64
	IRQDropped          uint64
	IRQDelayed          uint64
}

// StatsLine renders the result as one deterministic line; two runs with
// the same spec and seed must produce byte-identical lines (the
// reproducibility contract the determinism test pins).
func (r FaultSweepResult) StatsLine() string {
	return fmt.Sprintf("mode=%s n=%d seed=%d spec=%q total=%v perop=%v completed=%v "+
		"refl=%d wd=%d fallbacks=%d open-fallbacks=%d trips=%d recoveries=%d swfb=%d fires=%d irqdrop=%d irqdelay=%d",
		r.Mode, r.N, r.Seed, r.Spec, r.Total, r.PerOp, r.Completed,
		r.Reflections, r.WatchdogFires, r.Fallbacks, r.FallbackReflections,
		r.BreakerTrips, r.BreakerRecoveries, r.SWFallbacks, r.FaultFires,
		r.IRQDropped, r.IRQDelayed)
}

// FaultSweep runs the nested cpuid micro-benchmark with the given fault
// spec armed and reports the recovery counters. The explicit spec
// overrides the session's armed spec for this run; the session's obs
// arming still applies.
func (s *Session) FaultSweep(mode hv.Mode, spec *fault.Spec, n int) FaultSweepResult {
	cfg := s.config(mode)
	cfg.Faults = spec
	m := machine.NewNested(cfg)
	m.SetL2Workload(&cpuidLoop{n: n})
	s.run(m)
	m.Shutdown()

	r := FaultSweepResult{
		Mode:      mode,
		N:         n,
		Total:     m.Now(),
		PerOp:     m.Now() / sim.Time(n),
		Completed: !m.L0.DeadlockDetected,
	}
	if spec != nil {
		r.Spec = spec.String()
		r.Seed = spec.Seed
	}
	r.SWFallbacks = m.L0.SWFallbacks.Value()
	if m.Chan != nil {
		r.Reflections = m.Chan.Reflections.Value()
		r.WatchdogFires = m.Chan.WatchdogFires.Value()
		r.Fallbacks = m.Chan.Fallbacks.Value()
		r.FallbackReflections = m.Chan.FallbackReflections.Value()
		r.BreakerTrips, r.BreakerRecoveries = m.Chan.BreakerStats()
	}
	if m.Faults != nil {
		r.FaultFires = m.Faults.Fires()
	}
	for i := 0; i < m.Core.Contexts(); i++ {
		if l := m.Core.LAPIC(cpu.ContextID(i)); l != nil {
			r.IRQDropped += l.Dropped()
			r.IRQDelayed += l.Delayed()
		}
	}
	return r
}

// FaultCell is one independent fault-sweep run.
type FaultCell struct {
	Mode hv.Mode
	Spec *fault.Spec
	N    int
}

// FaultSweepGrid runs every cell on the session's worker pool and
// returns results in cell order. Each cell assembles its own machine
// with its own seeded fault plane, so the grid is byte-identical to
// running the cells serially (pinned by
// TestFaultSweepGridParallelDeterminism).
func (s *Session) FaultSweepGrid(cells []FaultCell) []FaultSweepResult {
	out, _ := sweep(context.Background(), s, len(cells), nil, "faultgrid",
		func(i int) string { return fmt.Sprintf("mode=%s", cells[i].Mode) },
		func(i int) FaultSweepResult { return s.FaultSweep(cells[i].Mode, cells[i].Spec, cells[i].N) })
	return out
}
