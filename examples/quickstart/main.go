// Quickstart: build the three-level nested virtualization stack in each
// configuration, run the paper's cpuid micro-benchmark, and print the
// headline result — the Table 1 breakdown and the Figure 6 speedups.
package main

import (
	"fmt"
	"os"

	"svtsim"
)

func main() {
	sess := svtsim.NewSession()

	const n = 1000

	fmt.Println("svtsim quickstart: nested cpuid under three system variants")
	fmt.Println()

	// The Figure 6 ladder: native, single-level, nested, and the two SVt
	// variants.
	native := sess.CPUIDNative(n)
	single := sess.CPUIDSingleLevel(n)
	fmt.Printf("  native (L0):        %v per cpuid\n", native.PerOp)
	fmt.Printf("  single level (L1):  %v per cpuid\n", single.PerOp)

	var base svtsim.CPUIDResult
	for _, mode := range svtsim.AllModes() {
		r := sess.CPUIDNested(mode, n)
		switch mode {
		case svtsim.Baseline:
			base = r
			fmt.Printf("  nested (L2):        %v per cpuid\n", r.PerOp)
		default:
			fmt.Printf("  nested + %-9s %v per cpuid (%.2fx speedup)\n",
				mode.String()+":", r.PerOp, float64(base.PerOp)/float64(r.PerOp))
		}
	}

	// Where does the nested baseline's time go? (Table 1.)
	sess.Table1(os.Stdout, n)
}
