package exp

import (
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/parallel"
	"svtsim/internal/sim"
	"svtsim/internal/swsvt"
)

// ChannelPoint is one cell of the §6.1 communication-channel study: a
// wait policy and thread placement, measured on the nested cpuid
// micro-benchmark with a variable surrounding workload.
type ChannelPoint struct {
	Policy    swsvt.Policy
	Placement swsvt.Placement
	Workload  sim.Time // compute between cpuid instructions
	PerOp     sim.Time // per-iteration latency
}

// ChannelStudy sweeps the SW SVt channel configurations of §6.1: polling,
// mwait and mutex waiters at SMT, cross-core and cross-NUMA placements,
// across workload sizes. The cells are independent machines, so the sweep
// fans out on the worker pool; the result order is the cross-product
// order regardless of pool width.
func (s *Session) ChannelStudy(n int, workloads []sim.Time) []ChannelPoint {
	policies := []swsvt.Policy{swsvt.PolicyPoll, swsvt.PolicyMwait, swsvt.PolicyMutex}
	places := []swsvt.Placement{swsvt.PlaceSMT, swsvt.PlaceCrossCore, swsvt.PlaceCrossNUMA}
	cells := len(policies) * len(places) * len(workloads)
	return parallel.MapN(s.Parallelism(), cells, func(i int) ChannelPoint {
		pol := policies[i/(len(places)*len(workloads))]
		place := places[i/len(workloads)%len(places)]
		wl := workloads[i%len(workloads)]
		cfg := s.config(hv.ModeSWSVt)
		cfg.WaitPolicy = pol
		cfg.Placement = place
		m := machine.NewNested(cfg)
		m.SetL2Workload(&cpuidLoop{n: n, compute: wl})
		s.run(m)
		m.Shutdown()
		return ChannelPoint{
			Policy:    pol,
			Placement: place,
			Workload:  wl,
			PerOp:     m.Now() / sim.Time(n),
		}
	})
}
