package parallel

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering: results land at their submission index no matter how
// workers interleave. Cells finish in deliberately scrambled order.
func TestMapOrdering(t *testing.T) {
	n := 64
	out := MapN(8, n, func(i int) int {
		time.Sleep(time.Duration((i*37)%5) * time.Millisecond)
		return i * i
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapSerialIsInOrder: one worker must run cells 0..n-1 sequentially
// on the calling goroutine — the property that makes -parallel=1 exactly
// the serial program.
func TestMapSerialIsInOrder(t *testing.T) {
	var order []int
	MapN(1, 10, func(i int) int {
		order = append(order, i) // safe: same goroutine
		return i
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v, want 0..9", order)
		}
	}
}

// TestMapParallelMatchesSerial: the core determinism contract for pure
// cells.
func TestMapParallelMatchesSerial(t *testing.T) {
	fn := func(i int) uint64 {
		h := uint64(i) * 1099511628211
		for k := 0; k < 1000; k++ {
			h = (h ^ uint64(k)) * 16777619
		}
		return h
	}
	serial := MapN(1, 200, fn)
	par := MapN(8, 200, fn)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("cell %d diverged: %d vs %d", i, serial[i], par[i])
		}
	}
}

// TestMapConcurrency: with k workers, at most k cells run at once, and
// more than one does (the pool actually fans out).
func TestMapConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	MapN(4, 32, func(i int) int {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return 0
	})
	if p := peak.Load(); p > 4 {
		t.Fatalf("peak concurrency %d exceeds 4 workers", p)
	} else if p < 2 {
		t.Fatalf("peak concurrency %d: pool never fanned out", p)
	}
}

// TestMapPanicPropagates: a panicking cell must surface on the caller,
// not kill the process from a worker goroutine.
func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		} else if r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	MapN(4, 16, func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	})
}

func TestMapEmpty(t *testing.T) {
	if out := MapN(4, 0, func(int) int { return 1 }); len(out) != 0 {
		t.Fatalf("len = %d, want 0", len(out))
	}
}
