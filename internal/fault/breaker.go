package fault

import (
	"fmt"

	"svtsim/internal/sim"
)

// BreakerState is the classic circuit-breaker tri-state.
type BreakerState int

const (
	// Closed: the guarded fast path is in use.
	Closed BreakerState = iota
	// Open: the fast path is tripped; callers take the fallback until
	// the cooldown elapses.
	Open
	// HalfOpen: the cooldown elapsed and one probe of the fast path is
	// allowed; success re-closes, failure re-opens immediately.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// Breaker degrades a fast path after consecutive failures and re-arms
// it after a virtual-time cooldown. In svtsim it guards the SW-SVt
// reflection channel: when the ring watchdog exhausts its retries
// Threshold times in a row, reflections fall back to baseline trap/resume,
// mirroring the paper's requirement that SVt never be less live than
// vanilla nesting.
type Breaker struct {
	eng *sim.Engine
	// Threshold is the number of consecutive failures that trips the
	// breaker from Closed to Open.
	Threshold int
	// Cooldown is how long the breaker stays Open before allowing a
	// half-open probe of the fast path.
	Cooldown sim.Time

	state       BreakerState
	consecutive int
	openedAt    sim.Time
	trips       uint64
	recoveries  uint64
}

// NewBreaker builds a closed breaker over the engine's virtual clock.
func NewBreaker(eng *sim.Engine, threshold int, cooldown sim.Time) *Breaker {
	return &Breaker{eng: eng, Threshold: threshold, Cooldown: cooldown}
}

// Allow reports whether the fast path may be attempted now. An Open
// breaker whose cooldown has elapsed transitions to HalfOpen and allows
// one probe.
func (b *Breaker) Allow() bool {
	switch b.state {
	case Closed, HalfOpen:
		return true
	case Open:
		if b.eng.Now()-b.openedAt >= b.Cooldown {
			b.state = HalfOpen
			return true
		}
		return false
	}
	return true
}

// Success records a fast-path success: the failure streak resets and a
// half-open probe re-closes the breaker.
func (b *Breaker) Success() {
	if b.state == HalfOpen {
		b.recoveries++
	}
	b.state = Closed
	b.consecutive = 0
}

// Failure records a fast-path failure. A half-open probe failure re-opens
// immediately; a closed breaker opens once the streak reaches Threshold.
func (b *Breaker) Failure() {
	b.consecutive++
	if b.state == HalfOpen || (b.state == Closed && b.consecutive >= b.Threshold) {
		b.state = Open
		b.openedAt = b.eng.Now()
		b.trips++
		b.consecutive = 0
	}
}

// Trips reports how many times the breaker has opened.
func (b *Breaker) Trips() uint64 { return b.trips }

// Recoveries reports how many half-open probes re-closed the breaker.
func (b *Breaker) Recoveries() uint64 { return b.recoveries }

func (b *Breaker) String() string {
	return fmt.Sprintf("breaker %s trips=%d recoveries=%d streak=%d",
		b.state, b.trips, b.recoveries, b.consecutive)
}
