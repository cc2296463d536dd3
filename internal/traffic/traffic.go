// Package traffic generates open-loop arrival processes for the load
// plane: seeded Poisson streams and bursty on/off modulation. An
// arrival schedule is a pure function of its Spec — the same spec
// yields the same arrival instants on every run, at any parallelism —
// which is what lets the load-balancer scenario stay byte-identical
// while modelling production-shaped load.
package traffic

import (
	"fmt"
	"math"

	"svtsim/internal/sim"
)

// Kind selects the arrival process.
type Kind int

const (
	// Poisson arrivals: exponential inter-arrival gaps at Rate req/s.
	Poisson Kind = iota
	// OnOff alternates bursts at BurstRate (for OnDur) with quiet
	// phases at Rate (for OffDur). Rate zero makes the quiet phase
	// silent.
	OnOff
)

func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case OnOff:
		return "burst"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Spec fully determines an arrival schedule.
type Spec struct {
	Kind Kind
	// Rate is the steady request rate in req/s (Poisson), or the
	// quiet-phase rate (OnOff).
	Rate float64
	// BurstRate is the on-phase rate for OnOff.
	BurstRate float64
	// OnDur/OffDur are the OnOff phase lengths.
	OnDur, OffDur sim.Time
	// Seed drives every random draw.
	Seed int64
}

func (s Spec) String() string {
	switch s.Kind {
	case OnOff:
		return fmt.Sprintf("burst(%.0f/%.0f req/s, on=%v off=%v, seed=%d)",
			s.BurstRate, s.Rate, s.OnDur, s.OffDur, s.Seed)
	}
	return fmt.Sprintf("poisson(%.0f req/s, seed=%d)", s.Rate, s.Seed)
}

// generator returns the incremental form of the schedule; Source uses
// it to avoid materialising long horizons.
func (s Spec) generator() *gen {
	g := &gen{spec: s, rnd: sim.NewRand(s.Seed).Float64}
	if s.Kind == OnOff {
		g.on = true
		g.phaseEnd = s.OnDur
	}
	return g
}

type gen struct {
	spec Spec
	rnd  func() float64
	t    sim.Time

	on       bool
	phaseEnd sim.Time
}

// next produces the following arrival instant. ok=false means the
// process is silent forever after (zero rates).
func (g *gen) next() (sim.Time, bool) {
	switch g.spec.Kind {
	case OnOff:
		// Draw at the current phase's rate; a gap that crosses the
		// phase boundary is re-drawn from the boundary (the exponential
		// is memoryless, so this is exact thinning).
		for tries := 0; tries < 1<<16; tries++ {
			rate := g.spec.Rate
			if g.on {
				rate = g.spec.BurstRate
			}
			if rate <= 0 {
				// Silent phase: jump to the next boundary.
				if g.spec.BurstRate <= 0 && g.spec.Rate <= 0 {
					return 0, false
				}
				g.t = g.phaseEnd
				g.flip()
				continue
			}
			gap := expGap(g.rnd, rate)
			if g.t+gap >= g.phaseEnd {
				g.t = g.phaseEnd
				g.flip()
				continue
			}
			g.t += gap
			return g.t, true
		}
		return 0, false // pathological spec: give up rather than spin
	default: // Poisson
		if g.spec.Rate <= 0 {
			return 0, false
		}
		g.t += expGap(g.rnd, g.spec.Rate)
		return g.t, true
	}
}

func (g *gen) flip() {
	g.on = !g.on
	if g.on {
		g.phaseEnd += g.spec.OnDur
	} else {
		g.phaseEnd += g.spec.OffDur
	}
}

// expGap draws one exponential inter-arrival gap, clamped to >= 1 ns so
// schedules stay strictly increasing and bounded by the horizon.
func expGap(rnd func() float64, rate float64) sim.Time {
	u := rnd()
	if u <= 0 {
		u = 1e-12
	}
	gap := sim.Time(-float64(sim.Second) / rate * math.Log(u))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// Source drives a Spec on an engine: OnArrival runs at each arrival
// instant until stopAt. All scheduling happens one arrival ahead, so a
// source never floods the event heap, and the source itself is the
// event's sim.Handler.
type Source struct {
	Eng  *sim.Engine
	Spec Spec
	// OnArrival receives the arrival ordinal (0-based).
	OnArrival func(i uint64)

	Issued uint64

	gen          *gen
	base, stopAt sim.Time
}

// Start schedules the arrival process until stopAt (exclusive).
func (s *Source) Start(stopAt sim.Time) {
	s.gen = s.Spec.generator()
	s.base, s.stopAt = s.Eng.Now(), stopAt
	s.next()
}

// next schedules the following arrival, if it falls before stopAt.
func (s *Source) next() {
	t, ok := s.gen.next()
	if !ok || s.base+t >= s.stopAt {
		return
	}
	s.Eng.AtCall(s.base+t, s, 0)
}

// Fire implements sim.Handler: one arrival.
func (s *Source) Fire(uint64) {
	i := s.Issued
	s.Issued++
	if s.OnArrival != nil {
		s.OnArrival(i)
	}
	s.next()
}
