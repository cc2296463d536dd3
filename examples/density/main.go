// Density: the fleet-consolidation experiment. Pack an increasing number
// of nested VMs onto a simulated multi-socket SMT host and watch what
// each acceleration mode buys at the fleet level: how many VMs fit
// before the worst per-VM p99 busts the SLO, and what the aggregate
// throughput looks like on the way there.
//
// This is also the Session API showcase: topology, parallelism and the
// rest of the campaign's configuration travel with the session value
// instead of process-global knobs, so two campaigns with different
// setups can run side by side.
package main

import (
	"flag"
	"fmt"
	"os"

	"svtsim"
)

func main() {
	topoStr := flag.String("host", "2x8x2", "host topology (sockets x cores x SMT)")
	vms := flag.Int("vms", 8, "max nested VMs to pack")
	slo := flag.Float64("slo", 500, "p99 SLO in microseconds")
	flag.Parse()

	topo, err := svtsim.ParseHostTopology(*topoStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "density:", err)
		os.Exit(1)
	}

	sess := svtsim.NewSession()
	sess.SetParallelism(4)
	if err := sess.SetTopology(topo); err != nil {
		fmt.Fprintln(os.Stderr, "density:", err)
		os.Exit(1)
	}

	fmt.Printf("svtsim density: packing up to %d nested VMs on %s (%d hardware contexts)\n\n",
		*vms, topo, topo.Contexts())

	// A single packing level, inspected VM by VM: the scheduler's
	// placement decisions are visible in each VM's context set, and the
	// SW-SVt gangs' placement class (SMT sibling vs cross-core) falls out
	// of what was free when the gang was admitted.
	for _, mode := range svtsim.AllModes() {
		pt := sess.Consolidation(mode, 4)
		fmt.Printf("%s, k=4:\n", mode)
		for _, vm := range pt.VMs {
			fmt.Printf("  vm%-2d %-9s ctxs=%v slowdown=%.2fx p99=%.1fus\n",
				vm.VM, vm.Workload, vm.Ctxs, vm.Slowdown, vm.P99Us)
		}
	}
	fmt.Println()

	// The full sweep: every packing level, every mode, plus the max
	// density meeting the SLO. Byte-identical at any parallelism.
	sess.Density(os.Stdout, *vms, *slo)
}
