// TPC-C in a nested VM: the paper's §6.3.2 experiment (Figure 9). The
// transaction mix runs against the virtio disk through the full nested
// I/O path; SVt's cheaper VM traps translate directly into transaction
// throughput.
package main

import (
	"flag"
	"fmt"

	"svtsim"
)

func main() {
	dur := flag.Duration("dur", 0, "virtual duration per run (default 2s)")
	flag.Parse()
	sess := svtsim.NewSession()

	d := 2 * svtsim.Second
	if *dur > 0 {
		d = svtsim.Time(dur.Nanoseconds())
	}

	fmt.Println("TPC-C transaction throughput in a nested VM")
	base := sess.TPCC(svtsim.Baseline, d)
	fmt.Printf("  baseline: %6.2f ktpm\n", base)
	svt := sess.TPCC(svtsim.SWSVt, d)
	fmt.Printf("  SW SVt:   %6.2f ktpm  (%.2fx)\n", svt, svt/base)
	hw := sess.TPCC(svtsim.HWSVt, d)
	fmt.Printf("  HW SVt:   %6.2f ktpm  (%.2fx)\n", hw, hw/base)
	fmt.Println("\npaper: baseline 6.37 ktpm, SVt speedup 1.18x")
}
