package sim

// This file implements the simulator's hot path: a deterministic
// discrete-event engine whose steady-state schedule/fire/cancel cycle
// performs zero heap allocations.
//
// Events live in an engine-owned arena (slabs that double from 8 to 256
// slots, so addresses are stable and an engine that schedules little
// carves little) and are recycled through an intrusive free-list: firing
// or canceling an event releases its handler and returns the slot to the
// list, and the next At/AtCall reuses it. A slot holds a Handler and a
// word of argument, so a hop that keeps its in-flight state in its own
// object schedules with no allocation at all; At's closure is one more
// Handler. The priority queue is a monomorphic 4-ary min-heap of slot
// pointers ordered by (time, seq) — the exact total order the previous
// container/heap implementation used — so dispatch order, and therefore
// every simulation result, is bit-identical to the interface-based
// engine it replaced. 4-ary beats binary here because sift-down does
// one compare-heavy level for every two a binary heap needs, and the
// four children share a cache line.
//
// Callers hold EventRef value handles, not slot pointers. Each slot
// carries a generation counter that is bumped on release; a ref snapshots
// the generation at schedule time, so a stale handle to a recycled slot
// is inert: Pending reports false and Cancel is a no-op, even when the
// slot has been reused for an unrelated event.

// firstSlab and slabSize bound the event slabs: an engine's first slab
// has firstSlab slots and each later one twice its predecessor's, up to
// slabSize. Most engines never hold more than a few events at once, so
// they carve one small slab; steady-state runs never outgrow their high-
// water mark, so scheduling stops allocating after warm-up.
const (
	firstSlab = 8
	slabSize  = 256
)

// Handler is an event target: when its event fires, the engine calls
// Fire with the argument it was scheduled with. A pointer to the object
// that owns the event's state schedules without allocating; a second
// kind of event on the same object uses a named pointer type over it.
type Handler interface {
	Fire(arg uint64)
}

// funcHandler makes a closure a Handler; the conversion does not
// allocate, as a func value fits the interface's data word.
type funcHandler func()

// Fire implements Handler.
func (f funcHandler) Fire(uint64) { f() }

// event is one arena slot. Slots are owned by their engine for its whole
// lifetime and recycled through the free-list; the handler is released
// (nilled) the moment the event fires or is canceled, so a retained
// EventRef pins only the arena slot, never a closure's captures.
type event struct {
	at    Time
	seq   uint64
	h     Handler
	arg   uint64
	index int32 // heap index, -1 when not queued
	gen   uint32
	next  *event // free-list link
	eng   *Engine
}

// EventRef is a cheap, copyable handle to a scheduled event. The zero
// value refers to no event: Pending reports false and Cancel is a no-op.
// Handles stay safe after the event fires — the slot's generation moves
// on, leaving the ref stale rather than dangling.
type EventRef struct {
	ev  *event
	gen uint32
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

	// Event arena: slots are carved from slabs (stable addresses) and
	// recycled through the free-list.
	free     *event
	slab     []event
	slabUsed int

	// Fault-injection plane (nil = healthy run, zero overhead).
	faults FaultInjector

	// onDispatch, when set, observes every event dispatch (the
	// observability plane samples it). Nil — the default — costs the
	// hot loop one predictable branch and nothing else.
	onDispatch func(Time)

	// Livelock/deadlock detection (see detect.go).
	stallLimit uint64
	stallCount uint64
	stallAt    Time
	probes     []Probe
}

// New returns an engine with the clock at zero and an empty queue.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

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
// mark). Each new slab doubles the last, from firstSlab up to slabSize.
func (e *Engine) alloc() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	if e.slabUsed == len(e.slab) {
		e.slab = make([]event, min(max(2*len(e.slab), firstSlab), slabSize))
		e.slabUsed = 0
	}
	ev := &e.slab[e.slabUsed]
	e.slabUsed++
	ev.eng = e
	return ev
}

// release recycles a fired or canceled slot: the handler is dropped so
// a closure's captures become collectable, and the generation bump
// invalidates every outstanding ref to the old event.
func (e *Engine) release(ev *event) {
	ev.h = nil
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// AtCall schedules h.Fire(arg) at absolute virtual time t. Times in the
// past are clamped to "now" (they fire at the next dispatch point).
func (e *Engine) AtCall(t Time, h Handler, arg uint64) EventRef {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	e.seq++
	ev.h = h
	ev.arg = arg
	e.heapPush(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// At schedules fn to run at absolute virtual time t, clamped as AtCall
// clamps it.
func (e *Engine) At(t Time, fn func()) EventRef {
	return e.AtCall(t, funcHandler(fn), 0)
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
		h, arg := ev.h, ev.arg
		// Recycle before running: the handler may schedule follow-up
		// events straight into the slot it just vacated.
		e.release(ev)
		e.dispatched++
		n++
		e.noteDispatch()
		if e.onDispatch != nil {
			e.onDispatch(e.now)
		}
		h.Fire(arg)
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
// Only tests call it; it stays as the engine test driver that six
// packages share.
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
