// Tracing a nested run: arm the observability plane, run the SW SVt
// reflection protocol under a nested cpuid workload, and export the
// timeline as Chrome trace-event JSON (load trace.json in
// https://ui.perfetto.dev or chrome://tracing). One track per hardware
// context makes the paper's core idea visible on screen: the guest
// hypervisor's SVt thread handling reflected exits on the SMT sibling
// while the main context stays in the nested guest.
//
// The plane only records — it never charges virtual time — so the
// reported per-op latency is byte-identical with tracing on or off.
package main

import (
	"fmt"
	"os"

	"svtsim"
)

func main() {
	sess := svtsim.NewSession()
	sess.SetObs(&svtsim.ObsOptions{})

	r := sess.CPUIDNested(svtsim.SWSVt, 300)
	fmt.Printf("nested cpuid (sw-svt): %v per instruction\n", r.PerOp)

	plane := sess.LastObs()

	// The timeline: spans for VM exits, nested exits, reflections and
	// wakeups; instants for ring pushes/pops, IRQs and IPIs.
	f, err := os.Create("trace.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := plane.Tracer.WriteChromeTrace(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f.Close()
	fmt.Printf("wrote %d events to trace.json\n", plane.Tracer.Total())

	// Where did the virtual cycles go?
	fmt.Println()
	plane.Tracer.WriteSummary(os.Stdout, 10)

	// And the metrics registry, as CSV.
	fmt.Println()
	plane.Metrics.WriteCSV(os.Stdout)
}
