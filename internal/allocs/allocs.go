// Package allocs measures heap allocations for the allocation tests.
// testing.AllocsPerRun divides its malloc count by the runs in integer
// arithmetic, so a path that allocates on fewer than all runs reads 0;
// PerRun returns the mean itself.
package allocs

import "runtime"

// PerRun calls f once to warm up and then runs times, and returns the
// mean number of heap allocations per call, unrounded: one allocation
// in 100 runs reads 0.01. Like testing.AllocsPerRun it measures at
// GOMAXPROCS 1, since the malloc count is process-wide.
func PerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
