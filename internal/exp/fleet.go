package exp

// FleetReplay is the fleet-scale engine macro: a pure event-engine
// workload at fleet-host scale. Every hardware context of the topology
// runs a self-rearming tick train on the host engine, and every
// CrossEvery-th tick fires a reschedule IPI at the context half the
// fleet away — a cross-socket hop. The workload is RNG-free and closed
// over virtual time only, so its digest is a pure function of the spec;
// the benchmark under bench/ asserts exactly that while timing it.

import (
	"context"
	"fmt"
	"hash/fnv"

	"svtsim/internal/host"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

// FleetReplaySpec parameterizes the macro.
type FleetReplaySpec struct {
	Topo host.Topology
	P    host.Params
	// Shards is ignored: the host has one engine. It stays until the
	// benchmark under bench/ stops setting it.
	Shards int
	// Dur is the simulated duration.
	Dur sim.Time
	// Tick is the base per-context tick period; each context adds a
	// small deterministic stagger so contexts never run in lockstep.
	Tick sim.Time
	// CrossEvery sends a cross-socket IPI every Nth tick (0 disables).
	CrossEvery int
}

// DefaultFleetReplaySpec is the benchmark configuration: the paper's
// 2x8x2 testbed host, 20 simulated milliseconds of 250ns ticks, an IPI
// across the fleet every 64th tick.
func DefaultFleetReplaySpec() FleetReplaySpec {
	return FleetReplaySpec{
		Topo:       host.DefaultTopology,
		P:          host.DefaultParams(),
		Shards:     1,
		Dur:        20 * sim.Millisecond,
		Tick:       250 * sim.Nanosecond,
		CrossEvery: 64,
	}
}

// FleetReplayResult is one FleetReplay run's outcome.
type FleetReplayResult struct {
	// Events is the total engine dispatches (ticks + IPI deliveries).
	Events uint64
	// Ticks and IPIs break Events down by kind.
	Ticks uint64
	IPIs  uint64
	// Elapsed is the simulated duration covered.
	Elapsed sim.Time
	// Digest fingerprints the guest-visible outcome: per-context tick
	// counts, per-context IPI arrivals, per-core event attribution.
	Digest uint64
}

// FleetReplay runs the macro and fingerprints its outcome.
func FleetReplay(spec FleetReplaySpec) FleetReplayResult {
	r, _ := fleetReplay(context.Background(), spec, nil)
	return r
}

// fleetReplay is FleetReplay with the job plumbing: the simulated
// duration advances in fleetReplayWindows RunUntil windows, checking
// ctx and emitting progress between them. Windowed RunUntil is exact
// (events fire at their virtual times regardless of how the advance is
// chopped), so the digest is independent of the window count.
func fleetReplay(ctx context.Context, spec FleetReplaySpec, pr ProgressFunc) (FleetReplayResult, error) {
	h, err := host.New(spec.Topo, spec.P)
	if err != nil {
		panic("exp: " + err.Error())
	}
	nctx := spec.Topo.Contexts()
	ticks := make([]uint64, nctx)
	for c := 0; c < nctx; c++ {
		c := host.CtxID(c)
		// Deterministic heterogeneity: periods and phases differ per
		// context so the heap sees realistic time diversity.
		period := spec.Tick + sim.Time(int(c)%7)*11
		partner := host.CtxID((int(c) + nctx/2) % nctx)
		var tick func()
		tick = func() {
			ticks[c]++
			if spec.CrossEvery > 0 && ticks[c]%uint64(spec.CrossEvery) == 0 {
				h.SendIPI(c, partner, ports.VecIPI)
			}
			h.Eng.After(period, tick)
		}
		h.Eng.At(period+sim.Time(c)*13, tick)
	}
	for w := 1; w <= fleetReplayWindows; w++ {
		if err := ctx.Err(); err != nil {
			return FleetReplayResult{}, err
		}
		h.Eng.RunUntil(spec.Dur * sim.Time(w) / fleetReplayWindows)
		pr.emit("fleet-replay", w, fleetReplayWindows,
			fmt.Sprintf("t=%v", spec.Dur*sim.Time(w)/fleetReplayWindows))
	}

	res := FleetReplayResult{
		Events:  h.Eng.Dispatched(),
		Elapsed: spec.Dur,
	}
	for _, n := range ticks {
		res.Ticks += n
	}
	for _, n := range h.IPIsReceived() {
		res.IPIs += n
	}
	d := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		d.Write(b[:])
	}
	for _, n := range ticks {
		word(n)
	}
	for _, n := range h.IPIsReceived() {
		word(n)
	}
	for _, n := range h.EventsByCore() {
		word(n)
	}
	word(res.Events)
	word(uint64(h.Eng.Now()))
	res.Digest = d.Sum64()
	return res, nil
}

// FleetReplayLine renders a result as one deterministic line. The
// "shards=1" prefix is a literal: cached svtsimd result bodies carry it.
func (r FleetReplayResult) FleetReplayLine() string {
	return fmt.Sprintf("shards=1 events=%d ticks=%d ipis=%d elapsed=%v digest=%016x",
		r.Events, r.Ticks, r.IPIs, r.Elapsed, r.Digest)
}
