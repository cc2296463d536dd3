package sim

import "fmt"

// FIFO holds the in-flight payloads of one hop whose events fire in the
// order they were scheduled: a fixed delay, or a busy horizon that only
// moves forward, makes every due time no earlier than the one before,
// and (time, seq) dispatch breaks ties in schedule order. So the hop's
// Handler needs no per-event state: At queues the payload beside the
// event, and Fire takes the oldest one back with Pop. The ring grows on
// first use and then only at a new high-water mark.
type FIFO[T any] struct {
	ring []fifoSlot[T] // length 0 or a power of two
	head int
	n    int
}

type fifoSlot[T any] struct {
	due Time
	v   T
}

// At schedules h at t with payload v. The event's argument is t itself,
// which Pop checks the oldest payload against.
func (q *FIFO[T]) At(e *Engine, t Time, h Handler, v T) {
	if q.n == len(q.ring) {
		ring := make([]fifoSlot[T], max(2*len(q.ring), 4))
		for i := 0; i < q.n; i++ {
			ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = fifoSlot[T]{t, v}
	q.n++
	e.AtCall(t, h, uint64(t))
}

// Pop removes and returns the oldest payload; arg is the argument of the
// event being fired. It panics, naming who, when that payload was not
// queued for this event: the hop's events left schedule order, so
// handing the payload on would misroute it.
func (q *FIFO[T]) Pop(arg uint64, who string) T {
	if q.n == 0 || q.ring[q.head].due != Time(arg) {
		var head any = "nothing"
		if q.n > 0 {
			head = q.ring[q.head].due
		}
		panic(fmt.Sprintf("%s: event due at %v fired, but the oldest in-flight payload is due at %v", who, Time(arg), head))
	}
	s := &q.ring[q.head]
	v := s.v
	*s = fifoSlot[T]{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}
