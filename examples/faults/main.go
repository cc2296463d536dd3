// Fault-injection sweep: how gracefully does the SW SVt prototype
// degrade when its communication substrate misbehaves? This arms the
// deterministic fault plane with increasing rates of lost mwait wakeups
// and dropped IPIs and reports the per-op latency next to the recovery
// machinery's counters: watchdog fires absorb isolated losses, and under
// sustained loss the per-VCPU breaker trips and routes reflections to
// the baseline trap/resume path until the channel heals.
//
// Every run is seed-deterministic: rerunning this program produces
// byte-identical output.
package main

import (
	"fmt"

	"svtsim"
)

func main() {
	sess := svtsim.NewSession()

	rates := []float64{0, 0.01, 0.05, 0.10, 0.30, 0.60}

	fmt.Println("SW SVt under injected faults: nested cpuid, 400 iterations")
	fmt.Printf("%-6s %10s %8s %6s %10s %7s %7s %10s\n",
		"rate", "per-op", "refl", "wd", "fallbacks", "trips", "recov", "completed")
	// The rate sweep is an independent grid: fan the cells out to all
	// cores. Results come back in cell order, so the rendered table is
	// byte-identical to a serial sweep.
	cells := make([]svtsim.FaultCell, len(rates))
	for i, rate := range rates {
		var spec *svtsim.FaultSpec
		if rate > 0 {
			spec = &svtsim.FaultSpec{
				Seed: 42,
				Sites: []svtsim.FaultSiteConfig{
					{Site: svtsim.FaultSiteSVtWakeup, Rate: rate, Drop: true},
					{Site: svtsim.FaultSiteIPI, Rate: rate, Drop: true},
				},
			}
		}
		cells[i] = svtsim.FaultCell{Mode: svtsim.SWSVt, Spec: spec, N: 400}
	}
	for i, r := range sess.FaultSweepGrid(cells) {
		fmt.Printf("%-6.2f %10v %8d %6d %10d %7d %7d %10v\n",
			rates[i], r.PerOp, r.Reflections, r.WatchdogFires,
			r.Fallbacks+r.FallbackReflections, r.BreakerTrips,
			r.BreakerRecoveries, r.Completed)
	}

	// A burst profile: the channel is healthy, breaks hard for a stretch
	// (every wakeup lost), then heals — the breaker's natural habitat.
	fmt.Println("\nBurst: wakeups 51..70 all lost, then healthy again")
	spec := &svtsim.FaultSpec{
		Seed: 42,
		Sites: []svtsim.FaultSiteConfig{
			{Site: svtsim.FaultSiteSVtWakeup, Every: 1, After: 50, Limit: 20, Drop: true},
		},
	}
	r := sess.FaultSweep(svtsim.SWSVt, spec, 400)
	fmt.Printf("per-op %v: %d watchdog fires, breaker tripped %d×, recovered %d×,\n",
		r.PerOp, r.WatchdogFires, r.BreakerTrips, r.BreakerRecoveries)
	fmt.Printf("%d reflections fell back to trap/resume while open, %d after retry exhaustion\n",
		r.FallbackReflections, r.Fallbacks)
}
