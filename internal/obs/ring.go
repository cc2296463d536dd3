package obs

// Ring is a bounded event buffer: the storage is one slab allocated at
// construction (the same arena style as the event engine), pushes
// overwrite the oldest entry once the ring is full, and a lifetime total
// keeps counting past the capacity. It generalizes the exit-trace ring
// that used to live in internal/hv.
type Ring struct {
	buf   []Event // fixed-length slab, used circularly
	n     int     // live entries (<= len(buf))
	next  int     // next write position
	total uint64  // lifetime pushes, including rotated-out entries
}

// NewRing returns a ring retaining the most recent capacity events.
// Capacities below one are clamped to one.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Total reports the lifetime push count (including events that have
// rotated out of the window).
func (r *Ring) Total() uint64 { return r.total }

// Push records e, overwriting the oldest retained event when full.
func (r *Ring) Push(e Event) {
	r.total++
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
}

// Do calls f for every retained event, oldest first, without allocating.
func (r *Ring) Do(f func(Event)) {
	start := 0
	if r.n == len(r.buf) {
		start = r.next
	}
	for i := 0; i < r.n; i++ {
		j := start + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		f(r.buf[j])
	}
}
