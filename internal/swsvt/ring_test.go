package swsvt

import (
	"testing"
	"testing/quick"

	"svtsim/internal/cost"
	"svtsim/internal/qcheck"
	"svtsim/internal/sim"
	"svtsim/internal/words"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 4; i++ {
		if err := r.Push(Cmd{Type: CmdVMTrap, Exit: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Push(Cmd{Type: CmdVMTrap}); err != ErrRingFull {
		t.Fatalf("expected full, got %v", err)
	}
	for i := 0; i < 4; i++ {
		c, ok := r.Pop()
		if !ok || c.Exit != uint64(i) {
			t.Fatalf("pop %d = %+v,%v", i, c, ok)
		}
		if c.Seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", c.Seq, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("empty ring must not pop")
	}
}

// TestRingPeek: Pending shows the queued commands, oldest first,
// without consuming them.
func TestRingPeek(t *testing.T) {
	r := NewRing(2)
	if len(r.Pending()) != 0 {
		t.Fatal("empty peek")
	}
	_ = r.Push(Cmd{Type: CmdVMResume})
	_ = r.Push(Cmd{Type: CmdVMTrap})
	p := r.Pending()
	if len(p) != 2 || p[0].Type != CmdVMResume || p[1].Type != CmdVMTrap {
		t.Fatalf("peek mismatch: %+v", p)
	}
	if r.Len() != 2 {
		t.Fatal("peek must not consume")
	}
}

// TestRingWordsRoundTrip: commands queued on a wrapped ring survive a
// save and load at their slots, sequence numbers included. The rings are
// empty wherever the simulator captures a machine; this pins the words
// of a ring that is not.
func TestRingWordsRoundTrip(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 4; i++ {
		if err := r.Push(Cmd{Type: CmdVMTrap, Exit: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			r.Pop()
		}
	}
	var w words.Writer
	s := w.Record(r.SaveWords)
	got := NewRing(3)
	rd := words.NewReader("ring", s)
	got.LoadWords(rd)
	if err := rd.Fin(); err != nil {
		t.Fatal(err)
	}
	want, have := r.Pending(), got.Pending()
	if len(have) != 2 || have[0] != want[0] || have[1] != want[1] {
		t.Fatalf("loaded %+v, want %+v", have, want)
	}
	if err := got.Push(Cmd{}); err != nil {
		t.Fatal(err)
	}
	if c, _ := got.Pop(); c != want[0] {
		t.Fatalf("first pop %+v, want %+v", c, want[0])
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(3)
	for round := 0; round < 10; round++ {
		if err := r.Push(Cmd{Exit: uint64(round)}); err != nil {
			t.Fatal(err)
		}
		c, ok := r.Pop()
		if !ok || c.Exit != uint64(round) {
			t.Fatalf("round %d: %+v", round, c)
		}
	}
	if r.pushes != 10 {
		t.Fatalf("pushes = %d", r.pushes)
	}
}

// Property: for any push/pop interleaving, popped commands come out in
// push order without loss or duplication (SPSC FIFO invariant).
func TestRingFIFOProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		r := NewRing(8)
		next := uint64(0)
		expect := uint64(0)
		for _, push := range ops {
			if push {
				if err := r.Push(Cmd{Exit: next}); err == nil {
					next++
				}
			} else if c, ok := r.Pop(); ok {
				if c.Exit != expect {
					return false
				}
				expect++
			}
		}
		for {
			c, ok := r.Pop()
			if !ok {
				break
			}
			if c.Exit != expect {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(prop, qcheck.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestWakeLatencyOrdering(t *testing.T) {
	m := cost.Baseline()
	// §6.1: polling has the lowest latency at workload size zero; mwait
	// has slightly longer delay than mutex for small waits (mutex spins
	// first) and beats mutex for long waits.
	poll := WakeLatency(&m, PolicyPoll, PlaceSMT, 0)
	mwait := WakeLatency(&m, PolicyMwait, PlaceSMT, 0)
	mutexShort := WakeLatency(&m, PolicyMutex, PlaceSMT, 0)
	mutexLong := WakeLatency(&m, PolicyMutex, PlaceSMT, m.MutexSpinGrace*10)
	if !(poll < mwait) {
		t.Fatalf("poll (%v) must beat mwait (%v) at size 0", poll, mwait)
	}
	if !(mutexShort < mwait) {
		t.Fatalf("mutex short-wait (%v) must beat mwait (%v)", mutexShort, mwait)
	}
	if !(mwait < mutexLong) {
		t.Fatalf("mwait (%v) must beat mutex long-wait (%v)", mwait, mutexLong)
	}
}

func TestWakeLatencyPlacement(t *testing.T) {
	m := cost.Baseline()
	smt := WakeLatency(&m, PolicyMwait, PlaceSMT, 0)
	core := WakeLatency(&m, PolicyMwait, PlaceCrossCore, 0)
	numa := WakeLatency(&m, PolicyMwait, PlaceCrossNUMA, 0)
	if !(smt < core && core < numa) {
		t.Fatalf("placement ordering violated: %v / %v / %v", smt, core, numa)
	}
	// §6.1: NUMA is up to an order of magnitude worse.
	if float64(numa) < 5*float64(smt) {
		t.Fatalf("NUMA (%v) should be far worse than SMT (%v)", numa, smt)
	}
}

func TestPollStealsOnlyOnSMT(t *testing.T) {
	m := cost.Baseline()
	busy := 10 * sim.Microsecond
	if PollStolenCycles(&m, PolicyPoll, PlaceSMT, busy) == 0 {
		t.Fatal("polling on SMT must steal sibling cycles")
	}
	if PollStolenCycles(&m, PolicyPoll, PlaceCrossCore, busy) != 0 {
		t.Fatal("cross-core polling must not steal")
	}
	if PollStolenCycles(&m, PolicyMwait, PlaceSMT, busy) != 0 {
		t.Fatal("mwait must not steal")
	}
	if PollStolenCycles(&m, PolicyPoll, PlaceSMT, 0) != 0 {
		t.Fatal("no busy time, nothing stolen")
	}
}

func TestPollStealGrowsWithWork(t *testing.T) {
	m := cost.Baseline()
	small := PollStolenCycles(&m, PolicyPoll, PlaceSMT, sim.Microsecond)
	large := PollStolenCycles(&m, PolicyPoll, PlaceSMT, 100*sim.Microsecond)
	if !(small < large) {
		t.Fatal("stolen cycles must grow with workload (§6.1)")
	}
}

func TestPolicyPlacementStrings(t *testing.T) {
	if PolicyMwait.String() != "mwait" || PolicyPoll.String() != "poll" || PolicyMutex.String() != "mutex" {
		t.Fatal("policy names")
	}
	if PlaceSMT.String() != "smt" || PlaceCrossCore.String() != "cross-core" || PlaceCrossNUMA.String() != "cross-numa" {
		t.Fatal("placement names")
	}
	if CmdVMTrap.String() != "CMD_VM_TRAP" || CmdVMResume.String() != "CMD_VM_RESUME" {
		t.Fatal("command names")
	}
}
