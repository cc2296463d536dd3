package sim

import (
	"strings"
	"testing"

	"svtsim/internal/allocs"
	"svtsim/internal/race"
)

// hop is a fixed-delay stage that logs the payloads it delivers.
type hop struct {
	eng   *Engine
	delay Time
	q     FIFO[int]
	got   []int
}

func (h *hop) send(v int) { h.q.At(h.eng, h.eng.Now()+h.delay, h, v) }

func (h *hop) Fire(arg uint64) { h.got = append(h.got, h.q.Pop(arg, "test hop")) }

// TestFIFODeliversInOrder: payloads queued at one instant and across
// instants come back in the order they were sent, through ring growth
// and wrap-around, interleaved with unrelated events.
func TestFIFODeliversInOrder(t *testing.T) {
	e := New()
	h := &hop{eng: e, delay: 10}
	var want []int
	next := 0
	for round := 0; round < 50; round++ {
		for k := 0; k < round%7; k++ {
			h.send(next)
			want = append(want, next)
			next++
		}
		e.After(3, func() {})
		e.RunUntil(e.Now() + Time(round%4))
	}
	e.Drain(1 << 20)
	if len(h.got) != len(want) {
		t.Fatalf("delivered %d payloads, want %d", len(h.got), len(want))
	}
	for i := range want {
		if h.got[i] != want[i] {
			t.Fatalf("payload %d is %d, want %d", i, h.got[i], want[i])
		}
	}
	if h.q.n != 0 {
		t.Fatalf("%d payloads left in flight", h.q.n)
	}
	for _, s := range h.q.ring {
		if s != (fifoSlot[int]{}) {
			t.Fatal("a delivered payload is still held by the ring")
		}
	}
}

// TestFIFOOutOfOrderPanics: a hop whose due times go backwards breaks
// the FIFO rule, and the first misrouted event panics naming the hop
// instead of handing on the wrong payload.
func TestFIFOOutOfOrderPanics(t *testing.T) {
	e := New()
	h := &hop{eng: e, delay: 10}
	h.send(1)
	h.delay = 5
	h.send(2)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "test hop") || !strings.Contains(msg, "due at 5ns") {
			t.Fatalf("panic %q, want one naming the hop and the 5ns event", msg)
		}
		if len(h.got) != 0 {
			t.Fatalf("delivered %v before the panic", h.got)
		}
	}()
	e.Drain(10)
	t.Fatal("out-of-order hop did not panic")
}

// TestFIFOAllocFree: once the ring and the arena hold a hop's
// high-water mark, sending and delivering allocate nothing.
func TestFIFOAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	e := New()
	h := &hop{eng: e, delay: 10, got: make([]int, 0, 1024)}
	cycle := func() {
		h.send(1)
		h.send(2)
		e.Drain(2)
	}
	cycle()
	if got := allocs.PerRun(100, cycle); got != 0 {
		t.Fatalf("send/deliver: %.2f allocs, want 0", got)
	}
}
