package sim

import (
	"reflect"
	"testing"
	"testing/quick"

	"svtsim/internal/qcheck"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.00us"},
		{1290, "1.29us"},
		{2500 * Microsecond, "2.50ms"},
		{3 * Second, "3.000s"},
		{-1290, "-1.29us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Errorf("Microseconds = %v, want 1.5", got)
	}
	if got := Micros(10.4); got != 10400 {
		t.Errorf("Micros(10.4) = %v, want 10400", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
	if got := (5 * Millisecond).Milliseconds(); got != 5 {
		t.Errorf("Milliseconds = %v, want 5", got)
	}
}

func TestAdvance(t *testing.T) {
	e := New()
	e.Advance(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
	e.Advance(-50) // negative ignored
	if e.Now() != 100 {
		t.Fatalf("Now after negative advance = %v, want 100", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.At(10, func() { order = append(order, 11) }) // same time: FIFO by schedule order
	for e.Step() {
	}
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestDispatchDueOnlyFiresDue(t *testing.T) {
	e := New()
	fired := 0
	e.At(5, func() { fired++ })
	e.At(50, func() { fired++ })
	e.Advance(10)
	if n := e.DispatchDue(); n != 1 || fired != 1 {
		t.Fatalf("DispatchDue = %d fired = %d, want 1/1", n, fired)
	}
	if e.PendingEvents() != 1 {
		t.Fatalf("pending = %d, want 1", e.PendingEvents())
	}
}

func TestDispatchDueFiresCascades(t *testing.T) {
	e := New()
	var got []string
	e.At(5, func() {
		got = append(got, "a")
		e.At(5, func() { got = append(got, "b") }) // due immediately
	})
	e.Advance(5)
	e.DispatchDue()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("cascade got %v", got)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(10, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending")
	}
	e.Cancel(ev)
	if ev.Pending() {
		t.Fatal("event should not be pending after cancel")
	}
	e.RunUntil(100)
	if fired {
		t.Fatal("canceled event fired")
	}
	e.Cancel(ev) // double-cancel is a no-op
}

func TestCancelForeignEventIgnored(t *testing.T) {
	e1, e2 := New(), New()
	fired := false
	ev := e1.At(10, func() { fired = true })
	e2.Cancel(ev) // wrong engine: must not touch e1's queue
	e1.RunUntil(20)
	if !fired {
		t.Fatal("event should still fire after foreign cancel")
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	e := New()
	e.Advance(100)
	fired := false
	ev := e.At(10, func() { fired = true })
	if at, ok := ev.AtOK(); !ok || at != 100 {
		t.Fatalf("past event at %v (pending=%v), want clamped to 100", at, ok)
	}
	e.DispatchDue()
	if !fired {
		t.Fatal("clamped event did not fire")
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	e := New()
	e.Advance(7)
	ev := e.After(-5, func() {})
	if at, ok := ev.AtOK(); !ok || at != 7 {
		t.Fatalf("After(-5) at %v (pending=%v), want 7", at, ok)
	}
}

func TestRunUntilEndsAtTarget(t *testing.T) {
	e := New()
	e.At(10, func() {})
	e.RunUntil(25)
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	if e.PendingEvents() != 0 {
		t.Fatalf("pending = %d, want 0", e.PendingEvents())
	}
}

func TestRunUntilDoesNotFireFuture(t *testing.T) {
	e := New()
	fired := false
	e.At(100, func() { fired = true })
	e.RunUntil(50)
	if fired {
		t.Fatal("future event fired early")
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
}

func TestDrainCap(t *testing.T) {
	e := New()
	var reschedule func()
	reschedule = func() { e.After(1, reschedule) }
	e.After(1, reschedule)
	if e.Drain(100) {
		t.Fatal("Drain should hit cap on self-rescheduling event")
	}
	if e.Dispatched() != 100 {
		t.Fatalf("dispatched = %d, want 100", e.Dispatched())
	}
}

func TestDrainEmpties(t *testing.T) {
	e := New()
	n := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() { n++ })
	}
	if !e.Drain(1000) {
		t.Fatal("Drain should empty the queue")
	}
	if n != 10 {
		t.Fatalf("fired %d, want 10", n)
	}
}

func TestStepEmptyQueue(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestNextEventTime(t *testing.T) {
	e := New()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty queue should have no next event")
	}
	e.At(42, func() {})
	e.At(17, func() {})
	at, ok := e.NextEventTime()
	if !ok || at != 17 {
		t.Fatalf("NextEventTime = %v,%v want 17,true", at, ok)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		e := New()
		r := NewRand(7)
		var stamps []Time
		for i := 0; i < 200; i++ {
			e.At(Time(r.Intn(1000)), func() { stamps = append(stamps, e.Now()) })
		}
		for e.Step() {
		}
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	prop := func(times []uint16) bool {
		e := New()
		var fired []Time
		for _, tt := range times {
			at := Time(tt)
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		for e.Step() {
		}
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qcheck.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRandIndependence(t *testing.T) {
	parent := NewRand(1)
	a := SplitRand(parent)
	b := SplitRand(parent)
	// The two child streams must differ from each other.
	same := true
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("split streams are identical")
	}
}

// --- Arena / free-list / generation-counter behaviour -------------------

// TestStaleRefAfterFire: once an event fires, the caller's handle must go
// stale — Pending false, At zero — even though the slot is recycled.
func TestStaleRefAfterFire(t *testing.T) {
	e := New()
	ev := e.At(10, func() {})
	e.RunUntil(20)
	if ev.Pending() {
		t.Fatal("fired event still pending via stale ref")
	}
	if ev.At() != 0 {
		t.Fatalf("stale ref At = %v, want 0", ev.At())
	}
	if at, ok := ev.AtOK(); ok || at != 0 {
		t.Fatalf("stale ref AtOK = (%v, %v), want (0, false)", at, ok)
	}
}

// TestAtOKDisambiguatesTimeZero: a pending event scheduled at time 0 is
// indistinguishable from a dead ref through At (both report 0); AtOK
// tells them apart.
func TestAtOKDisambiguatesTimeZero(t *testing.T) {
	e := New()
	ev := e.At(0, func() {})
	if ev.At() != 0 {
		t.Fatalf("pending time-0 event At = %v, want the ambiguous 0", ev.At())
	}
	if at, ok := ev.AtOK(); !ok || at != 0 {
		t.Fatalf("pending time-0 event AtOK = (%v, %v), want (0, true)", at, ok)
	}
	e.DispatchDue()
	if at, ok := ev.AtOK(); ok || at != 0 {
		t.Fatalf("fired time-0 event AtOK = (%v, %v), want (0, false)", at, ok)
	}
}

// TestStaleCancelDoesNotKillRecycledSlot is the generation-counter
// contract: a handle to a fired event must not cancel the unrelated event
// that now occupies the recycled slot.
func TestStaleCancelDoesNotKillRecycledSlot(t *testing.T) {
	e := New()
	stale := e.At(10, func() {})
	e.RunUntil(10) // fires; slot goes to the free-list
	fired := false
	fresh := e.At(20, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatalf("expected slot reuse (free-list broken?): %p vs %p", fresh.ev, stale.ev)
	}
	e.Cancel(stale) // stale generation: must be a no-op
	if !fresh.Pending() {
		t.Fatal("stale Cancel killed the recycled slot's new event")
	}
	if stale.Pending() {
		t.Fatal("stale ref reports pending for the slot's new occupant")
	}
	e.RunUntil(30)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestFiredEventReleasesClosure: dispatch must drop the fn reference so
// the closure's captures become collectable even while handles persist.
func TestFiredEventReleasesClosure(t *testing.T) {
	e := New()
	ev := e.At(5, func() {})
	e.RunUntil(5)
	if ev.ev.fn != nil {
		t.Fatal("fired event still holds its closure")
	}
	ev2 := e.At(7, func() {})
	e.Cancel(ev2)
	if ev2.ev.fn != nil {
		t.Fatal("canceled event still holds its closure")
	}
}

// TestCancelZeroRef: the zero EventRef is inert.
func TestCancelZeroRef(t *testing.T) {
	e := New()
	var zero EventRef
	if zero.Pending() {
		t.Fatal("zero ref pending")
	}
	e.Cancel(zero) // must not panic
}

// TestArenaRecycling: a long steady-state run must not grow the arena
// beyond its high-water mark.
func TestArenaRecycling(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 10*slabSize; i++ {
		e.After(1, fn)
		e.Step()
	}
	if e.PendingEvents() != 0 {
		t.Fatalf("pending = %d, want 0", e.PendingEvents())
	}
	// Queue depth never exceeded 1, so a single slab suffices.
	if e.slabUsed > 1 || len(e.slab) != slabSize {
		t.Fatalf("arena grew beyond one slot: used %d of %d", e.slabUsed, len(e.slab))
	}
}

// --- Golden dispatch-order test -----------------------------------------

// refEvent is the reference model: a plain sorted-on-dispatch list with
// the documented (time, seq) FIFO total order.
type refEvent struct {
	at   Time
	seq  uint64
	id   int
	dead bool
}

// TestDispatchOrderGolden drives a seeded schedule/cancel/advance workload
// through the engine and through a brute-force reference model and demands
// identical dispatch sequences, then pins the sequence's fingerprint so a
// future engine change that alters the total order (even one matching the
// reference model after a semantics tweak) fails loudly.
func TestDispatchOrderGolden(t *testing.T) {
	e := New()
	r := NewRand(12345)
	var ref []refEvent
	var refsByID []EventRef
	var engineOrder, refOrder []int
	id := 0
	seq := uint64(0)

	dispatchRefDue := func(now Time) {
		for {
			best := -1
			for i := range ref {
				if ref[i].dead || ref[i].at > now {
					continue
				}
				if best == -1 || ref[i].at < ref[best].at ||
					(ref[i].at == ref[best].at && ref[i].seq < ref[best].seq) {
					best = i
				}
			}
			if best == -1 {
				return
			}
			ref[best].dead = true
			refOrder = append(refOrder, ref[best].id)
		}
	}

	for round := 0; round < 400; round++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // schedule
			at := e.Now() + Time(r.Intn(50))
			myID := id
			id++
			refsByID = append(refsByID, e.At(at, func() { engineOrder = append(engineOrder, myID) }))
			ref = append(ref, refEvent{at: at, seq: seq, id: myID})
			seq++
		case 6, 7: // cancel a random still-live event
			if len(refsByID) == 0 {
				continue
			}
			i := r.Intn(len(refsByID))
			e.Cancel(refsByID[i])
			for j := range ref {
				if ref[j].id == i && !ref[j].dead && ref[j].at > e.Now() {
					ref[j].dead = true
				}
			}
		default: // advance and dispatch
			e.Advance(Time(r.Intn(30)))
			e.DispatchDue()
			dispatchRefDue(e.Now())
		}
	}
	e.Drain(1 << 20)
	dispatchRefDue(1 << 60)

	if len(engineOrder) != len(refOrder) {
		t.Fatalf("dispatched %d events, reference model %d", len(engineOrder), len(refOrder))
	}
	for i := range engineOrder {
		if engineOrder[i] != refOrder[i] {
			t.Fatalf("dispatch order diverged from (time, seq) FIFO at %d: engine %d, ref %d",
				i, engineOrder[i], refOrder[i])
		}
	}
	// Golden fingerprint (FNV-1a over the dispatch sequence) pinned from
	// the container/heap engine this implementation replaced.
	h := uint64(14695981039346656037)
	for _, v := range engineOrder {
		h = (h ^ uint64(v)) * 1099511628211
	}
	const golden = uint64(0x84fb1f022122a9fa)
	if h != golden {
		t.Fatalf("dispatch-sequence fingerprint %#x, want %#x (dispatch order changed!)", h, golden)
	}
}

// TestRunUntilWindowedMatchesSingle: RunUntil chopped into 16 windows
// dispatches exactly the (time, origin) sequence of one RunUntil over the
// whole horizon, including events that land on a window boundary. The
// fleet replay's progress windows rely on this to keep its digest
// independent of the window count.
func TestRunUntilWindowedMatchesSingle(t *testing.T) {
	type dispatch struct {
		at     Time
		origin int
	}
	const (
		ctxs    = 8
		windows = 16
		horizon = Time(windows*1000 + 8) // window ends fall on and between ticks
	)
	run := func(n int) []dispatch {
		e := New()
		var log []dispatch
		e.SetDispatchHook(func(now Time) { log = append(log, dispatch{now, e.Origin()}) })
		for c := 0; c < ctxs; c++ {
			c := c
			period := Time(250 + 13*(c%5))
			partner := (c + ctxs/2) % ctxs
			ticks := 0
			var tick func()
			tick = func() {
				ticks++
				if ticks%3 == 0 {
					// A cross-context hop, attributed to its target.
					e.SetOrigin(partner)
					e.After(Time(90+c), func() {})
					e.SetOrigin(c)
				}
				e.After(period, tick)
			}
			e.SetOrigin(c)
			e.At(period, tick)
		}
		e.SetOrigin(NoOrigin)
		for w := 1; w <= n; w++ {
			end := horizon * Time(w) / Time(n)
			e.RunUntil(end)
			if e.Now() != end {
				t.Fatalf("window %d/%d ended at %v, want %v", w, n, e.Now(), end)
			}
		}
		return log
	}
	want := run(1)
	got := run(windows)
	if len(want) == 0 {
		t.Fatal("workload dispatched nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windowed run dispatched %d events, single run %d; sequences differ", len(got), len(want))
	}
}
