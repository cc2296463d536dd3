// Soft-realtime video playback: the paper's §6.3.3 experiment
// (Figure 10). A player in the nested VM decodes against vsync deadlines
// while streaming from the virtio disk; at high frame rates the timer and
// interrupt delivery overhead of nested virtualization decides which
// marginal frames drop.
package main

import (
	"flag"
	"fmt"

	"svtsim"
)

func main() {
	seconds := flag.Int("seconds", 300, "seconds of playback per run")
	flag.Parse()
	sess := svtsim.NewSession()

	fmt.Printf("video playback, %d s per run, dropped frames:\n", *seconds)
	fmt.Printf("%6s %12s %12s %10s\n", "FPS", "baseline", "SW SVt", "ratio")
	for _, fps := range []int{24, 60, 120} {
		frames := fps * *seconds
		b := sess.VideoN(svtsim.Baseline, fps, frames)
		s := sess.VideoN(svtsim.SWSVt, fps, frames)
		ratio := "-"
		if b.Dropped > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(s.Dropped)/float64(b.Dropped))
		}
		fmt.Printf("%6d %12d %12d %10s\n", fps, b.Dropped, s.Dropped, ratio)
	}
	fmt.Println("\npaper (Figure 10): 0/0, 3/0, 40/0.65x")
}
