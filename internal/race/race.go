//go:build race

// Package race reports whether the binary was built with the race
// detector. Allocation-budget tests skip under -race: the detector's
// instrumentation allocates on paths that otherwise allocate nothing.
package race

// Enabled is true when built with -race.
const Enabled = true
