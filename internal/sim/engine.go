package sim

// This file implements the simulator's hot path: a deterministic
// discrete-event engine whose steady-state schedule/fire/cancel cycle
// performs zero heap allocations.
//
// Events live in an engine-owned arena (fixed-size slabs, so addresses
// are stable) and are recycled through an intrusive free-list: firing or
// canceling an event releases its closure and returns the slot to the
// list, and the next At/After reuses it. The priority queue is a
// monomorphic 4-ary min-heap of slot pointers ordered by (time, seq) —
// the exact total order the previous container/heap implementation used —
// so dispatch order, and therefore every simulation result, is
// bit-identical to the interface-based engine it replaced. 4-ary beats
// binary here because sift-down does one compare-heavy level for every
// two a binary heap needs, and the four children share a cache line.
//
// Callers hold EventRef value handles, not slot pointers. Each slot
// carries a generation counter that is bumped on release; a ref snapshots
// the generation at schedule time, so a stale handle to a recycled slot
// is inert: Pending reports false and Cancel is a no-op, even when the
// slot has been reused for an unrelated event.

// slabSize is the number of event slots allocated at once when the
// free-list runs dry. Steady-state runs never outgrow their first few
// slabs, so scheduling stops allocating after warm-up.
const slabSize = 256

// event is one arena slot. Slots are owned by their engine for its whole
// lifetime and recycled through the free-list; the fn closure is released
// (nilled) the moment the event fires or is canceled, so a retained
// EventRef pins only the arena slot, never the callback's captures.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	index  int32 // heap index, -1 when not queued
	gen    uint32
	origin int32  // scheduling origin (multi-core attribution), -1 = none
	next   *event // free-list link
	eng    *Engine
}

// EventRef is a cheap, copyable handle to a scheduled event. The zero
// value refers to no event: Pending reports false and Cancel is a no-op.
// Handles stay safe after the event fires — the slot's generation moves
// on, leaving the ref stale rather than dangling.
type EventRef struct {
	ev  *event
	gen uint32
}

// At reports the virtual time the event is scheduled for, or 0 if the
// event already fired or was canceled. A pending event scheduled at
// time 0 is indistinguishable from a dead ref here; use AtOK when that
// distinction matters.
func (r EventRef) At() Time {
	if !r.Pending() {
		return 0
	}
	return r.ev.at
}

// AtOK reports the virtual time the event is scheduled for and whether
// the event is still pending. Unlike At, a pending event at time 0
// returns (0, true) and is therefore distinguishable from a fired or
// canceled one, which returns (0, false).
func (r EventRef) AtOK() (Time, bool) {
	if !r.Pending() {
		return 0, false
	}
	return r.ev.at, true
}

// Pending reports whether the event is still queued.
func (r EventRef) Pending() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.index >= 0
}

// Engine is a deterministic discrete-event engine with a virtual clock.
// The zero value is not usable; construct with New.
type Engine struct {
	now        Time
	queue      []*event // 4-ary min-heap by (at, seq)
	seq        uint64
	dispatched uint64
	wakeEpoch  uint64
	ledger     *Ledger

	// Event arena: slots are carved from fixed slabs (stable addresses)
	// and recycled through the free-list.
	free     *event
	slab     []event
	slabUsed int

	// Fault-injection plane (nil = healthy run, zero overhead).
	faults FaultInjector

	// onDispatch, when set, observes every event dispatch (the
	// observability plane samples it). Nil — the default — costs the
	// hot loop one predictable branch and nothing else.
	onDispatch func(Time)

	// origin is the current multi-core attribution tag (see SetOrigin).
	origin int32

	// Livelock/deadlock detection (see detect.go).
	stallLimit uint64
	stallCount uint64
	stallAt    Time
	onStall    func(*StallReport)
	probes     []Probe
}

// New returns an engine with the clock at zero and an empty queue.
func New() *Engine { return &Engine{origin: NoOrigin} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// NoOrigin is the origin value of unattributed events.
const NoOrigin = -1

// SetOrigin tags subsequently scheduled events with origin o (a core
// index on multi-core hosts; NoOrigin clears the tag). When a tagged
// event fires, the engine's current origin becomes the event's tag for
// the duration of its callback and until the next dispatch — so events
// scheduled from inside a callback inherit their ancestor's origin, and
// multi-core attribution follows causality without any per-site plumbing.
func (e *Engine) SetOrigin(o int) { e.origin = int32(o) }

// Origin reports the current attribution tag: inside an event callback,
// the origin of the chain that scheduled it.
func (e *Engine) Origin() int { return int(e.origin) }

// Dispatched reports how many events have fired so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// SetDispatchHook installs (or, with nil, removes) an observer called
// with the current virtual time after each event fires. The hook must
// not mutate engine state: it exists for observability only, and the
// determinism guarantees assume it neither charges time nor schedules.
func (e *Engine) SetDispatchHook(fn func(Time)) { e.onDispatch = fn }

// NoteWake records a wake-relevant occurrence (an interrupt delivery,
// typically). Idle loops sample WakeEpoch around Step: a bump means an
// event just changed interrupt state somewhere — possibly on a LAPIC the
// loop's own wait condition does not cover — so the sleeper must unwind
// and let every level of the HLT chain re-check its condition. Without
// this, a delivery rescheduled into event context (e.g. by the fault
// plane's delay injection) can satisfy a waiter that no one re-examines,
// and the idle loop runs the queue dry and declares a false deadlock.
func (e *Engine) NoteWake() { e.wakeEpoch++ }

// WakeEpoch reports the wake counter; see NoteWake.
func (e *Engine) WakeEpoch() uint64 { return e.wakeEpoch }

// Advance moves the clock forward by d without dispatching events; it is
// how executing entities charge compute time. Negative durations are
// ignored so call sites can pass raw model deltas.
func (e *Engine) Advance(d Time) {
	if d > 0 {
		e.now += d
		if e.ledger != nil {
			e.ledger.T[e.ledger.cur] += d
		}
	}
}

// alloc takes a slot from the free-list, or carves one from the current
// slab (growing the arena only when the queue reaches a new high-water
// mark).
func (e *Engine) alloc() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	if e.slabUsed == len(e.slab) {
		e.slab = make([]event, slabSize)
		e.slabUsed = 0
	}
	ev := &e.slab[e.slabUsed]
	e.slabUsed++
	ev.eng = e
	return ev
}

// release recycles a fired or canceled slot: the closure is dropped so
// its captures become collectable, and the generation bump invalidates
// every outstanding ref to the old event.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at absolute virtual time t. Times in the past are
// clamped to "now" (they fire at the next dispatch point).
func (e *Engine) At(t Time, fn func()) EventRef {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	e.seq++
	ev.fn = fn
	ev.origin = e.origin
	e.heapPush(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) EventRef {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event; canceling a fired, already-canceled or
// zero ref is a no-op, as is canceling a ref from another engine. A stale
// ref whose slot was recycled fails the generation check and never
// touches the slot's new occupant.
func (e *Engine) Cancel(r EventRef) {
	ev := r.ev
	if ev == nil || ev.eng != e || ev.gen != r.gen || ev.index < 0 {
		return
	}
	e.heapRemove(int(ev.index))
	e.release(ev)
}

// PendingEvents reports the number of queued events.
func (e *Engine) PendingEvents() int { return len(e.queue) }

// NextEventTime reports the timestamp of the earliest pending event.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// DispatchDue fires, in order, every event whose time is <= now. It returns
// the number of events fired. Events scheduled by fired callbacks for a
// due time are also fired before returning.
func (e *Engine) DispatchDue() int {
	n := 0
	for len(e.queue) > 0 && e.queue[0].at <= e.now {
		ev := e.heapPopMin()
		fn := ev.fn
		// The firing event's origin becomes the engine's: work the
		// callback schedules inherits the attribution of its cause.
		e.origin = ev.origin
		// Recycle before running: the callback may schedule follow-up
		// events straight into the slot it just vacated.
		e.release(ev)
		e.dispatched++
		n++
		e.noteDispatch()
		if e.onDispatch != nil {
			e.onDispatch(e.now)
		}
		fn()
	}
	return n
}

// Step advances the clock to the next pending event and dispatches
// everything due at that instant. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	if e.queue[0].at > e.now {
		e.now = e.queue[0].at
	}
	e.DispatchDue()
	return true
}

// RunUntil advances virtual time to t, dispatching all events on the way.
// The clock always ends exactly at t (unless an event pushed it further via
// Advance, which models an event that performed work).
func (e *Engine) RunUntil(t Time) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Drain runs until no events remain or until the safety cap of maxEvents
// dispatches is hit; it reports whether the queue was fully drained.
func (e *Engine) Drain(maxEvents uint64) bool {
	start := e.dispatched
	for len(e.queue) > 0 {
		if e.dispatched-start >= maxEvents {
			return false
		}
		e.Step()
	}
	return true
}

// --- 4-ary min-heap over arena slots -----------------------------------
//
// The ordering predicate is (at, seq): seq is unique per engine, so the
// order is total and dispatch is FIFO within a timestamp — the invariant
// every determinism guarantee in this codebase rests on.

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *event) {
	e.queue = append(e.queue, ev)
	ev.index = int32(len(e.queue) - 1)
	e.siftUp(len(e.queue) - 1)
}

func (e *Engine) heapPopMin() *event {
	q := e.queue
	min := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		q[0] = last
		last.index = 0
		e.siftDown(0)
	}
	min.index = -1
	return min
}

// heapRemove removes the slot at heap position i (Cancel's workhorse).
func (e *Engine) heapRemove(i int) {
	q := e.queue
	ev := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if i < n {
		q[i] = last
		last.index = int32(i)
		e.siftDown(i)
		if q[i] == last {
			e.siftUp(i)
		}
	}
	ev.index = -1
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i)
		i = p
	}
	q[i] = ev
	ev.index = int32(i)
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(q[c], q[m]) {
				m = c
			}
		}
		if !eventLess(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].index = int32(i)
		i = m
	}
	q[i] = ev
	ev.index = int32(i)
}
