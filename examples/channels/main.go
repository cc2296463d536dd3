// The §6.1 communication-channel study: how should the SW SVt prototype
// wait for commands? This sweeps the three wait mechanisms (polling,
// monitor/mwait, mutex) across the three thread placements (SMT sibling,
// same-NUMA cross-core, cross-NUMA) and workload sizes, reproducing the
// paper's conclusion that SMT + mwait is the right compromise.
package main

import (
	"fmt"

	"svtsim"
)

func main() {
	sess := svtsim.NewSession()

	workloads := []svtsim.Time{0, 5 * svtsim.Microsecond, 20 * svtsim.Microsecond}
	pts := sess.ChannelStudy(300, workloads)

	fmt.Println("SW SVt channel study: nested cpuid per-op latency")
	fmt.Printf("%-8s %-12s %14s %14s\n", "policy", "placement", "workload", "per-op")
	for _, p := range pts {
		fmt.Printf("%-8s %-12s %14v %14v\n", p.Policy, p.Placement, p.Workload, p.PerOp)
	}

	fmt.Println("\npaper (§6.1):")
	fmt.Println(" - polling offers very little acceleration (it steals sibling cycles)")
	fmt.Println(" - placing threads on different NUMA nodes costs up to 10x in wakeups")
	fmt.Println(" - SMT + mwait is the best compromise, and what the prototype uses")
}
