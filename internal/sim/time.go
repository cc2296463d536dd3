// Package sim provides the deterministic virtual-time substrate on which
// the whole machine model runs: a virtual clock, an ordered event queue,
// and seeded randomness. All timing in svtsim is expressed in virtual
// nanoseconds; nothing in the simulator reads the wall clock, so runs are
// exactly reproducible for a given seed.
package sim

import "fmt"

// Time is a point in (or duration of) virtual time, in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "1.29us" or "2.50ms".
func (t Time) String() string {
	// Format the magnitude as a uint64: negating MinInt64 overflows.
	sign, a := "", uint64(t)
	if t < 0 {
		sign, a = "-", -a
	}
	switch {
	case a < uint64(Microsecond):
		return fmt.Sprintf("%s%dns", sign, a)
	case a < uint64(Millisecond):
		return fmt.Sprintf("%s%.2fus", sign, float64(a)/float64(Microsecond))
	case a < uint64(Second):
		return fmt.Sprintf("%s%.2fms", sign, float64(a)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%.3fs", sign, float64(a)/float64(Second))
	}
}
