package exp

// Cancellation and progress for the long-running experiments. Each sweep
// has one body, named *Context, that takes a context checked between
// coarse simulation steps (points of a density sweep, cells of a table
// or grid, windows of a fleet replay) and an optional ProgressFunc fed
// after every completed step; the plain name wraps it with
// context.Background(). Cancellation is cooperative at step granularity
// — a single nested-VM simulation always runs to completion — and the
// results and progress sequence are byte-identical at any pool width
// (pinned by TestSweepsWidthInvariant), which is what lets svtsimd's
// content-addressed cache treat a job's rendered output as a pure
// function of its request.

import (
	"context"
	"sync"

	"svtsim/internal/parallel"
	"svtsim/internal/sim"
)

// ProgressEvent is one completed step of a job: Done of Total steps of
// Stage are finished, and Detail names the step that just completed.
type ProgressEvent struct {
	Stage  string `json:"stage"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Detail string `json:"detail,omitempty"`
}

// ProgressFunc receives progress events. Calls never overlap and arrive
// strictly ordered, though a pooled sweep may make them from its worker
// goroutines; nil is allowed and reports nothing.
type ProgressFunc func(ProgressEvent)

func (pr ProgressFunc) emit(stage string, done, total int, detail string) {
	if pr != nil {
		pr(ProgressEvent{Stage: stage, Done: done, Total: total, Detail: detail})
	}
}

// sweep runs cell(0..n-1) on the session's worker pool and returns the
// results in cell order. ctx is checked before each cell starts: once it
// is cancelled no further cell starts, and the sweep returns ctx.Err().
// Progress is reported in cell order — Done runs 1..n at any pool width —
// with detail(i) naming cell i; with a nil pr nothing is tracked.
func sweep[T any](ctx context.Context, s *Session, n int, pr ProgressFunc, stage string, detail func(int) string, cell func(int) T) ([]T, error) {
	var (
		mu       sync.Mutex
		done     []bool
		next     int
		emitting bool // one worker at a time reports, outside mu
	)
	if pr != nil {
		done = make([]bool, n)
	}
	out := parallel.MapN(s.Parallelism(), n, func(i int) T {
		if ctx.Err() != nil {
			var zero T
			return zero
		}
		v := cell(i)
		if pr == nil {
			return v
		}
		mu.Lock()
		done[i] = true
		if !emitting {
			emitting = true
			for next < n && done[next] {
				next++
				k := next
				mu.Unlock()
				pr.emit(stage, k, n, detail(k-1))
				mu.Lock()
			}
			emitting = false
		}
		mu.Unlock()
		return v
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// fleetReplayWindows is the progress granularity of a fleet replay: the
// simulated duration is covered in this many RunUntil windows, with the
// context checked between them. RunUntil is exact and monotonic
// (TestRunUntilWindowedMatchesSingle in internal/sim), so windowing never
// changes the digest.
const fleetReplayWindows = 16

// FleetReplayJob runs the fleet-scale engine macro on the session's
// topology and host params, with cancellation and progress between
// simulated-time windows. dur <= 0 keeps the DefaultFleetReplaySpec
// value; crossEvery < 0 keeps the default (0 disables cross-socket
// IPIs). An uncancelled job's result is byte-identical to FleetReplay
// on the same spec.
func (s *Session) FleetReplayJob(ctx context.Context, dur sim.Time, crossEvery int, pr ProgressFunc) (FleetReplayResult, error) {
	spec := DefaultFleetReplaySpec()
	spec.Topo = s.Topology()
	spec.P = s.HostParams()
	if dur > 0 {
		spec.Dur = dur
	}
	if crossEvery >= 0 {
		spec.CrossEvery = crossEvery
	}
	return fleetReplay(ctx, spec, pr)
}
