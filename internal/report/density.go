package report

import (
	"fmt"
	"io"

	"svtsim/internal/exp"
)

// Density renders the fleet consolidation sweep: pack k = 1..kmax nested
// VMs onto the session's host topology per mode, and report per-VM
// latency under contention, aggregate throughput, and the largest
// density whose worst per-VM p99 meets the SLO. This is the fleet-level
// extension of Figures 6–8: the paper measures one nested VM on one SMT
// core; here the L0 scheduler packs many onto a multi-socket host and
// the SVt-thread placement class falls out of topology occupancy.
func (rr *Renderer) Density(w io.Writer, kmax int, sloUs float64) {
	topo := rr.s.Topology()
	hr(w, fmt.Sprintf("Fleet consolidation: nested-VM density on %s (p99 SLO %.0f us)", topo, sloUs))
	results := rr.s.DensitySweep(exp.AllModes(), kmax, sloUs)
	// Note: the sweep's output is identical at any -parallel width (the
	// CI determinism golden byte-compares it), and the events column is
	// a simulation quantity, not a perf one.
	fmt.Fprintf(w, "%-10s %4s %12s %12s %14s %10s %8s %8s %8s\n",
		"mode", "k", "worst-p50", "worst-p99", "agg-thruput", "core-util", "migr", "ipis", "events")
	for _, res := range results {
		for _, pt := range res.Points {
			slo := " "
			if pt.WorstP99Us > sloUs {
				slo = "*"
			}
			fmt.Fprintf(w, "%-10s %4d %10.1fus %10.1fus%s %11.0fop/s %9.2f %8d %8d %8d\n",
				res.Mode, pt.K, pt.WorstP50Us, pt.WorstP99Us, slo,
				pt.AggThroughput, pt.CoreUtilMean,
				pt.Migrations, pt.IPIsSMT+pt.IPIsCore+pt.IPIsNUMA, pt.Events)
		}
	}
	fmt.Fprintln(w, "(* = p99 SLO violated)")
	for _, res := range results {
		fmt.Fprintf(w, "max density %-10s %d VMs within SLO\n", res.Mode.String()+":", res.MaxDensity)
	}
}
