// Package parallel provides the deterministic fan-out used by the
// experiment sweeps: a bounded worker pool that runs independent cells
// concurrently and returns results in submission-index order, so a
// parallel sweep is byte-identical to a serial one.
//
// Every experiment cell in this codebase owns its entire world — a fresh
// sim.Engine, its own machine, and seeded RNG streams — so cells never
// share mutable state and their results depend only on their inputs.
// That makes the fan-out contract trivial to honor: MapN indexes results
// by submission order, and with one worker it degenerates to a plain
// in-order loop on the calling goroutine.
package parallel

import (
	"sync"
	"sync/atomic"
)

// MapN runs fn(0..n-1) on up to workers goroutines and returns results
// indexed by input: out[i] = fn(i). With one worker the calls run
// sequentially, in index order, on the calling goroutine. A panic in any
// cell is re-raised on the caller after the other workers finish.
func MapN[T any](workers, n int, fn func(int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	return out
}
