package exp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/host"
)

func jobTestSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession()
	if err := s.SetTopology(host.Topology{Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 2}); err != nil {
		t.Fatal(err)
	}
	return s
}

// widthSession is a default session with a fixed pool width.
func widthSession(workers int) *Session {
	s := NewSession()
	s.SetParallelism(workers)
	return s
}

// sweepCase runs one sweep through its context-aware body and renders
// the results as the deterministic lines svtsimd caches.
type sweepCase struct {
	name string
	run  func(ctx context.Context, s *Session, pr ProgressFunc) ([]string, error)
}

func sweepCases() []sweepCase {
	modes := AllModes()
	lines := func(n int, line func(int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = line(i)
		}
		return out
	}
	return []sweepCase{
		{"density", func(ctx context.Context, s *Session, pr ProgressFunc) ([]string, error) {
			rs, err := s.DensitySweepContext(ctx, modes[:2], 2, 500, pr)
			var out []string
			for _, r := range rs {
				for _, pt := range r.Points {
					out = append(out, pt.StatsLine())
				}
				out = append(out, r.SummaryLine())
			}
			return out, err
		}},
		{"storm", func(ctx context.Context, s *Session, pr ProgressFunc) ([]string, error) {
			rs, err := s.StormTableContext(ctx, modes, 3, 6, 42, pr)
			return lines(len(rs), func(i int) string { return rs[i].StatsLine() }), err
		}},
		{"lb", func(ctx context.Context, s *Session, pr ProgressFunc) ([]string, error) {
			rs, err := s.LoadBalancerTableContext(ctx, modes[:3], 2, "steady", 42, 1000, pr)
			return lines(len(rs), func(i int) string { return rs[i].StatsLine() }), err
		}},
		{"faultgrid", func(ctx context.Context, s *Session, pr ProgressFunc) ([]string, error) {
			var cells []FaultCell
			for i, rate := range []float64{0, 0.1, 0.3, 0.5} {
				spec := &fault.Spec{Seed: int64(7 + i), Sites: []fault.SiteConfig{
					{Site: fault.SiteSVtWakeup, Rate: rate, Drop: true},
				}}
				cells = append(cells, FaultCell{Mode: modes[1], Spec: spec, N: 60})
			}
			cells = append(cells, FaultCell{Mode: modes[0], N: 3, Storms: 4, StormSeed: 9})
			rs, err := s.FaultSweepGridContext(ctx, cells, pr)
			return lines(len(rs), func(i int) string { return rs[i].StatsLine() }), err
		}},
	}
}

// TestSweepsWidthInvariant pins the one-body contract of every merged
// sweep: at pool width 1 and 4 the rendered results are byte-identical,
// and so is the progress sequence, whose Done runs strictly 1..N in cell
// order. Cached job bytes are therefore interchangeable with a fresh run
// at any width.
func TestSweepsWidthInvariant(t *testing.T) {
	for _, c := range sweepCases() {
		t.Run(c.name, func(t *testing.T) {
			var lines [2][]string
			var events [2][]ProgressEvent
			for i, w := range []int{1, 4} {
				s := jobTestSession(t)
				s.SetParallelism(w)
				out, err := c.run(context.Background(), s, func(e ProgressEvent) {
					events[i] = append(events[i], e)
				})
				if err != nil {
					t.Fatalf("width %d: %v", w, err)
				}
				lines[i] = out
			}
			if !reflect.DeepEqual(lines[0], lines[1]) {
				t.Fatalf("results diverged between widths 1 and 4:\n%q\n%q", lines[0], lines[1])
			}
			if !reflect.DeepEqual(events[0], events[1]) {
				t.Fatalf("progress diverged between widths 1 and 4:\n%+v\n%+v", events[0], events[1])
			}
			evs := events[0]
			if len(evs) == 0 {
				t.Fatal("no progress reported")
			}
			for i, e := range evs {
				if e.Done != i+1 || e.Total != len(evs) || e.Stage != c.name || e.Detail == "" {
					t.Fatalf("event %d = %+v, want done=%d total=%d stage=%s", i, e, i+1, len(evs), c.name)
				}
			}
		})
	}
}

// TestJobCancellation: a context cancelled from the first progress
// callback stops a pooled sweep with the context's error, and a context
// cancelled up front stops every sweep before its first cell.
func TestJobCancellation(t *testing.T) {
	for _, c := range sweepCases() {
		s := jobTestSession(t)
		s.SetParallelism(4)
		ctx, cancel := context.WithCancel(context.Background())
		_, err := c.run(ctx, s, func(ProgressEvent) { cancel() })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", c.name, err)
		}

		calls := 0
		_, err = c.run(ctx, s, func(ProgressEvent) { calls++ })
		if !errors.Is(err, context.Canceled) || calls != 0 {
			t.Errorf("%s: pre-cancelled run: err = %v after %d steps, want context.Canceled after 0",
				c.name, err, calls)
		}
	}
	already, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := jobTestSession(t).FleetReplayJob(already, 0, 0, -1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("FleetReplayJob err = %v, want context.Canceled", err)
	}
}

// TestProgressEventsOrdered: a serial density sweep stops right after
// the step whose callback cancelled it, and its events carry
// monotonically increasing Done out of a fixed Total.
func TestProgressEventsOrdered(t *testing.T) {
	s := jobTestSession(t)
	s.SetParallelism(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evs []ProgressEvent
	_, err := s.DensitySweepContext(ctx, AllModes(), 3, 500, func(e ProgressEvent) {
		evs = append(evs, e)
		if len(evs) == 4 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	for i, e := range evs {
		want := fmt.Sprintf("mode=%s k=%d", AllModes()[i/3], i%3+1)
		if e.Done != i+1 || e.Total != 9 || e.Stage != "density" || e.Detail != want {
			t.Fatalf("event %d = %+v, want done=%d total=9 detail=%q", i, e, i+1, want)
		}
	}
}

// TestFleetReplayJobMatchesPlain: the windowed, cancellable replay must
// produce the same digest as the monolithic one, at 1 shard and at 2.
func TestFleetReplayJobMatchesPlain(t *testing.T) {
	for _, shards := range []int{1, 2} {
		spec := DefaultFleetReplaySpec()
		spec.Topo = host.Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}
		spec.Dur = spec.Dur / 10
		spec.Shards = shards
		plain := FleetReplay(spec)

		s := NewSession()
		if err := s.SetTopology(spec.Topo); err != nil {
			t.Fatal(err)
		}
		s.SetShards(shards)
		var events int
		job, err := s.FleetReplayJob(context.Background(), spec.Dur, spec.Tick, spec.CrossEvery,
			func(ProgressEvent) { events++ })
		if err != nil {
			t.Fatal(err)
		}
		if job != plain {
			t.Errorf("shards=%d: FleetReplayJob = %+v, plain = %+v", shards, job, plain)
		}
		if events != fleetReplayWindows {
			t.Errorf("shards=%d: %d progress events, want %d", shards, events, fleetReplayWindows)
		}
	}
}
