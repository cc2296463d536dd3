package fault

import "svtsim/internal/sim"

// Watchdog holds the retry policy for a virtual-time watchdog on the
// L0↔SVt-thread command rings. The component owning the wait (the SW-SVt
// channel) drives the loop: attempt the wakeup, wait TimeoutFor(attempt),
// and if the peer has not responded, charge the timeout and retry with
// exponential backoff until MaxRetries is exhausted — at which point the
// failure is reported to the per-VCPU Breaker.
type Watchdog struct {
	// Timeout is the base wait before the first retry.
	Timeout sim.Time
	// MaxTimeout caps the backed-off timeout.
	MaxTimeout sim.Time
	// MaxRetries bounds retries after the initial attempt; the total
	// number of attempts is MaxRetries+1.
	MaxRetries int
}

// DefaultWatchdog returns the standard ring watchdog: 10us base timeout
// (comfortably above any healthy reflection round-trip, which is under
// 2us), doubling per retry up to 1ms, three retries.
func DefaultWatchdog() *Watchdog {
	return &Watchdog{
		Timeout:    10 * sim.Microsecond,
		MaxTimeout: sim.Millisecond,
		MaxRetries: 3,
	}
}

// TimeoutFor reports the wait budget for the given zero-based attempt,
// doubling per attempt and clamped to MaxTimeout.
func (w *Watchdog) TimeoutFor(attempt int) sim.Time {
	t := w.Timeout
	for i := 0; i < attempt; i++ {
		t *= 2
		if t >= w.MaxTimeout {
			return w.MaxTimeout
		}
	}
	if t > w.MaxTimeout {
		t = w.MaxTimeout
	}
	return t
}
