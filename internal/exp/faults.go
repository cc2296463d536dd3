package exp

import (
	"svtsim/internal/fault"
	"svtsim/internal/hv"
	"svtsim/internal/parallel"
	"svtsim/internal/sim"
)

// FaultSweepResult is one fault-injection run: the workload outcome plus
// every recovery counter the fault plane exercised.
type FaultSweepResult struct {
	PerOp     sim.Time
	Completed bool

	Reflections         uint64
	WatchdogFires       uint64
	Fallbacks           uint64
	FallbackReflections uint64
	BreakerTrips        uint64
	BreakerRecoveries   uint64
}

// FaultSweep runs the nested cpuid micro-benchmark with the given fault
// spec armed and reports the recovery counters. The explicit spec
// overrides the session's armed spec for this run; the session's obs
// arming still applies.
func (s *Session) FaultSweep(mode hv.Mode, spec *fault.Spec, n int) FaultSweepResult {
	cfg := s.config(mode)
	cfg.Faults = spec
	m := s.nestedCPUID(cfg, n, nil)

	r := FaultSweepResult{
		PerOp:     m.Now() / sim.Time(n),
		Completed: !m.L0.DeadlockDetected,
	}
	if m.Chan != nil {
		r.Reflections = m.Chan.Reflections.Value()
		r.WatchdogFires = m.Chan.WatchdogFires.Value()
		r.Fallbacks = m.Chan.Fallbacks.Value()
		r.FallbackReflections = m.Chan.FallbackReflections.Value()
		r.BreakerTrips, r.BreakerRecoveries = m.Chan.BreakerStats()
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
	return parallel.MapN(s.Parallelism(), len(cells), func(i int) FaultSweepResult {
		return s.FaultSweep(cells[i].Mode, cells[i].Spec, cells[i].N)
	})
}
