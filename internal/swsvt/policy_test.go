package swsvt

import (
	"testing"

	"svtsim/internal/cost"
	"svtsim/internal/sim"
)

// wakeModel returns a cost model with round wake numbers so the expected
// latencies below are readable by inspection.
func wakeModel() cost.Model {
	m := cost.Baseline()
	m.MwaitWake = 900
	m.PollWake = 100
	m.MutexWake = 1200
	m.MutexSpinGrace = 2000
	m.CrossCoreFactor = 2
	m.CrossNUMAFactor = 10
	m.PollOverheadFrac = 0.5
	return m
}

func TestWakeLatencyTable(t *testing.T) {
	m := wakeModel()
	cases := []struct {
		pol    Policy
		place  Placement
		waited sim.Time
		want   sim.Time
	}{
		// mwait: fixed wake cost, scaled by placement; wait time irrelevant.
		{PolicyMwait, PlaceSMT, 0, 900},
		{PolicyMwait, PlaceSMT, 50_000, 900},
		{PolicyMwait, PlaceCrossCore, 0, 1800},
		{PolicyMwait, PlaceCrossNUMA, 0, 9000},

		// poll: cheapest reaction, scaled by placement; wait time irrelevant.
		{PolicyPoll, PlaceSMT, 0, 100},
		{PolicyPoll, PlaceSMT, 50_000, 100},
		{PolicyPoll, PlaceCrossCore, 0, 200},
		{PolicyPoll, PlaceCrossNUMA, 0, 1000},

		// mutex: short waits are caught by the spin grace (poll-priced),
		// longer waits pay the kernel futex wakeup.
		{PolicyMutex, PlaceSMT, 0, 100},
		{PolicyMutex, PlaceSMT, 2000, 100},  // exactly at the grace boundary
		{PolicyMutex, PlaceSMT, 2001, 1200}, // just past it
		{PolicyMutex, PlaceSMT, 50_000, 1200},
		{PolicyMutex, PlaceCrossCore, 0, 200},
		{PolicyMutex, PlaceCrossCore, 50_000, 2400},
		{PolicyMutex, PlaceCrossNUMA, 0, 1000},
		{PolicyMutex, PlaceCrossNUMA, 50_000, 12000},

		// A negative wait (caller clock skew) behaves as a short wait, it
		// must not underflow into the expensive path.
		{PolicyMutex, PlaceSMT, -5, 100},
		{PolicyMwait, PlaceSMT, -5, 900},
	}
	for _, c := range cases {
		got := WakeLatency(&m, c.pol, c.place, c.waited)
		if got != c.want {
			t.Errorf("WakeLatency(%v, %v, waited=%d) = %d, want %d",
				c.pol, c.place, c.waited, got, c.want)
		}
	}
}

func TestPollStolenCyclesTable(t *testing.T) {
	m := wakeModel() // PollOverheadFrac = 0.5: stolen = busy*0.5/0.5 = busy
	cases := []struct {
		pol   Policy
		place Placement
		busy  sim.Time
		want  sim.Time
	}{
		// Only a polling waiter on the SMT sibling steals cycles.
		{PolicyPoll, PlaceSMT, 1000, 1000},
		{PolicyPoll, PlaceSMT, 10_000, 10_000},

		// Every other policy/placement combination is free.
		{PolicyPoll, PlaceCrossCore, 1000, 0},
		{PolicyPoll, PlaceCrossNUMA, 1000, 0},
		{PolicyMwait, PlaceSMT, 1000, 0},
		{PolicyMwait, PlaceCrossCore, 1000, 0},
		{PolicyMwait, PlaceCrossNUMA, 1000, 0},
		{PolicyMutex, PlaceSMT, 1000, 0},
		{PolicyMutex, PlaceCrossCore, 1000, 0},
		{PolicyMutex, PlaceCrossNUMA, 1000, 0},

		// Zero and negative busy time never charge (no underflow).
		{PolicyPoll, PlaceSMT, 0, 0},
		{PolicyPoll, PlaceSMT, -100, 0},
	}
	for _, c := range cases {
		got := PollStolenCycles(&m, c.pol, c.place, c.busy)
		if got != c.want {
			t.Errorf("PollStolenCycles(%v, %v, busy=%d) = %d, want %d",
				c.pol, c.place, c.busy, got, c.want)
		}
	}
}

// TestPollStolenCyclesFracBounds: a misconfigured overhead fraction (≤0
// or ≥1) disables the charge instead of dividing by zero or going
// negative.
func TestPollStolenCyclesFracBounds(t *testing.T) {
	for _, frac := range []float64{0, -0.5, 1, 1.5} {
		m := wakeModel()
		m.PollOverheadFrac = frac
		if got := PollStolenCycles(&m, PolicyPoll, PlaceSMT, 1000); got != 0 {
			t.Errorf("frac=%v: PollStolenCycles = %d, want 0", frac, got)
		}
	}
}

// TestPollStolenCyclesScalesWithFrac pins the frac/(1-frac) shape: the
// stolen time grows superlinearly as the poller's share approaches the
// whole core.
func TestPollStolenCyclesScalesWithFrac(t *testing.T) {
	m := wakeModel()
	m.PollOverheadFrac = 0.25
	low := PollStolenCycles(&m, PolicyPoll, PlaceSMT, 9000)
	m.PollOverheadFrac = 0.75
	high := PollStolenCycles(&m, PolicyPoll, PlaceSMT, 9000)
	if low != 3000 { // 9000 * 0.25/0.75
		t.Errorf("frac=0.25: got %d, want 3000", low)
	}
	if high != 27000 { // 9000 * 0.75/0.25
		t.Errorf("frac=0.75: got %d, want 27000", high)
	}
}

func TestWatchdogBackoff(t *testing.T) {
	want := []sim.Time{
		10 * sim.Microsecond, 20 * sim.Microsecond,
		40 * sim.Microsecond, 80 * sim.Microsecond,
	}
	for i, exp := range want {
		if got := watchdogWait(i); got != exp {
			t.Fatalf("watchdogWait(%d) = %v, want %v", i, got, exp)
		}
	}
	if got := watchdogWait(20); got != sim.Millisecond {
		t.Fatalf("watchdogWait(20) = %v, want clamp at %v", got, sim.Millisecond)
	}
}
