package obs

import (
	"testing"

	"svtsim/internal/sim"
)

// mk builds an event distinguishable by its Arg1.
func mk(i int) Event {
	return Event{At: sim.Time(i), Arg1: uint64(i), Kind: KindVMExit}
}

// events returns the retained window, oldest first, read straight from
// the slab: the newest n entries ending just before next.
func events(r *Ring) []Event {
	out := make([]Event, r.n)
	for i := range out {
		out[i] = r.buf[(r.next-r.n+i+len(r.buf))%len(r.buf)]
	}
	return out
}

func args(events []Event) []uint64 {
	out := make([]uint64, len(events))
	for i, e := range events {
		out[i] = e.Arg1
	}
	return out
}

func TestRingTable(t *testing.T) {
	cases := []struct {
		name   string
		cap    int
		pushes int

		wantCap    int
		wantLen    int
		wantTotal  uint64
		wantOldest uint64 // Arg1 of the first retained event
		wantNewest uint64 // Arg1 of the last retained event
	}{
		{name: "empty", cap: 4, pushes: 0, wantCap: 4, wantLen: 0, wantTotal: 0},
		{name: "partial", cap: 4, pushes: 3, wantCap: 4, wantLen: 3, wantTotal: 3, wantOldest: 0, wantNewest: 2},
		{name: "exactly-full", cap: 4, pushes: 4, wantCap: 4, wantLen: 4, wantTotal: 4, wantOldest: 0, wantNewest: 3},
		{name: "wrap-once", cap: 4, pushes: 5, wantCap: 4, wantLen: 4, wantTotal: 5, wantOldest: 1, wantNewest: 4},
		{name: "wrap-many", cap: 4, pushes: 11, wantCap: 4, wantLen: 4, wantTotal: 11, wantOldest: 7, wantNewest: 10},
		{name: "cap-one", cap: 1, pushes: 3, wantCap: 1, wantLen: 1, wantTotal: 3, wantOldest: 2, wantNewest: 2},
		{name: "cap-zero-clamps", cap: 0, pushes: 2, wantCap: 1, wantLen: 1, wantTotal: 2, wantOldest: 1, wantNewest: 1},
		{name: "cap-negative-clamps", cap: -5, pushes: 1, wantCap: 1, wantLen: 1, wantTotal: 1, wantOldest: 0, wantNewest: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing(tc.cap)
			for i := 0; i < tc.pushes; i++ {
				r.Push(mk(i))
			}
			if len(r.buf) != tc.wantCap {
				t.Errorf("capacity = %d, want %d", len(r.buf), tc.wantCap)
			}
			if r.n != tc.wantLen {
				t.Errorf("retained = %d, want %d", r.n, tc.wantLen)
			}
			if r.Total() != tc.wantTotal {
				t.Errorf("Total() = %d, want %d", r.Total(), tc.wantTotal)
			}
			es := events(r)
			if len(es) != tc.wantLen {
				t.Fatalf("events() returned %d, want %d", len(es), tc.wantLen)
			}
			if tc.wantLen > 0 {
				if es[0].Arg1 != tc.wantOldest {
					t.Errorf("oldest = %d, want %d (retained %v)", es[0].Arg1, tc.wantOldest, args(es))
				}
				if es[len(es)-1].Arg1 != tc.wantNewest {
					t.Errorf("newest = %d, want %d (retained %v)", es[len(es)-1].Arg1, tc.wantNewest, args(es))
				}
			}
		})
	}
}

// The retained window must always be the most recent Cap() pushes in push
// order, at every point of a long run — this pins the wrap arithmetic
// (the old hv exit ring grew its slab lazily and could misorder the
// window right as it crossed capacity).
func TestRingWindowOrderingAtEveryLength(t *testing.T) {
	const capacity = 3
	r := NewRing(capacity)
	for i := 0; i < 10; i++ {
		r.Push(mk(i))
		es := events(r)
		want := i + 1
		if want > capacity {
			want = capacity
		}
		if len(es) != want {
			t.Fatalf("after %d pushes: retained %d, want %d", i+1, len(es), want)
		}
		for j, e := range es {
			expect := uint64(i + 1 - len(es) + j)
			if e.Arg1 != expect {
				t.Fatalf("after %d pushes: window %v, position %d want %d", i+1, args(es), j, expect)
			}
		}
		if r.Total() != uint64(i+1) {
			t.Fatalf("after %d pushes: Total() = %d", i+1, r.Total())
		}
	}
}

func TestRingDoMatchesEvents(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		r.Push(mk(i))
	}
	var got []Event
	r.Do(func(e Event) { got = append(got, e) })
	want := events(r)
	if len(got) != len(want) {
		t.Fatalf("Do visited %d, the window holds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Do[%d] = %+v, window[%d] = %+v", i, got[i], i, want[i])
		}
	}
}
