// Memcached under load: the paper's §6.3.1 experiment. An open-loop
// client generates Facebook-ETC traffic against a memcached server
// running in the nested VM; the baseline saturates (99th percentile blows
// through the 500 µs SLA) well before the SVt-accelerated system does.
package main

import (
	"flag"
	"fmt"

	"svtsim"
)

func main() {
	dur := flag.Duration("dur", 0, "per-point virtual duration (default 300ms)")
	flag.Parse()
	sess := svtsim.NewSession()

	d := 300 * svtsim.Millisecond
	if *dur > 0 {
		d = svtsim.Time(dur.Nanoseconds())
	}

	const sla = 500.0 // µs, following the paper (IX's parameters)
	fmt.Println("memcached + ETC load sweep (99th percentile vs 500us SLA)")
	fmt.Printf("%10s | %22s | %22s\n", "load (q/s)", "baseline p99 (us)", "SW SVt p99 (us)")
	for _, rate := range []float64{4000, 8000, 12000, 16000, 20000} {
		b := sess.Memcached(svtsim.Baseline, rate, d)
		s := sess.Memcached(svtsim.SWSVt, rate, d)
		mark := func(p float64) string {
			if p > sla {
				return " (SLA VIOLATED)"
			}
			return ""
		}
		fmt.Printf("%10.0f | %10.0f%-12s | %10.0f%-12s\n",
			rate, b.P99Us, mark(b.P99Us), s.P99Us, mark(s.P99Us))
	}
	fmt.Println("\npaper: SVt sustains 2.20x the within-SLA throughput of the baseline")
}
