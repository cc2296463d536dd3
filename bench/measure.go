package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spreads printed here match the ones the acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tail is the highest percentile of a sample that still has at least
// ten samples beyond it, with the sample count it was taken over.
type tail struct {
	Pct   float64 `json:"pct"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// tailOf picks the percentile in steps of 0.1 and reads it by nearest
// rank. With fewer than 11 samples no percentile qualifies; the maximum
// is reported as p100 instead.
func tailOf(xs []float64) tail {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	if n < 11 {
		return tail{Pct: 100, Value: s[n-1], N: n}
	}
	pct := math.Floor(1000*(1-10/float64(n))) / 10
	rank := int(math.Ceil(pct / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return tail{Pct: pct, Value: s[rank-1], N: n}
}

// memSnap reads the allocation counters the per-cell metrics need. It
// stops the world, so callers take it outside every timed span.
func memSnap() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// allocated is the heap bytes allocated between two snapshots.
func allocated(from, to runtime.MemStats) uint64 { return to.TotalAlloc - from.TotalAlloc }

// --- spans ---------------------------------------------------------------

// span is one timed call into a layer, recorded by the benchmark around
// its own call. Spans of one cell share the cell index.
type span struct {
	name       string
	cell       int
	parent     int // index into the same track's spans, -1 for a root
	start, end time.Duration
	child      time.Duration // summed duration of direct children
}

// track holds the spans of one load-driving goroutine. A nil *track
// records nothing, which is how untraced runs skip span bookkeeping.
type track struct {
	id    int
	t0    time.Time
	spans []span
	open  []int
}

// begin opens a span and returns its handle for end.
func (t *track) begin(name string, cell int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, cell: cell, parent: parent, start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *track) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	if s.parent >= 0 {
		t.spans[s.parent].child += s.end - s.start
	}
}

// timed runs fn inside a span and returns its wall time.
func (t *track) timed(name string, cell int, fn func()) time.Duration {
	id := t.begin(name, cell)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// spanSet is every track of a traced run.
type spanSet struct {
	mu     sync.Mutex
	t0     time.Time
	tracks []*track
}

func newSpanSet() *spanSet { return &spanSet{t0: time.Now()} }

// newTrack returns a fresh track, or nil when tracing is off.
func (ss *spanSet) newTrack() *track {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	t := &track{id: len(ss.tracks) + 1, t0: ss.t0}
	ss.tracks = append(ss.tracks, t)
	return t
}

// selfMedians reports, per span name, the median self time in seconds:
// the span's duration minus the part its direct children cover.
func (ss *spanSet) selfMedians() map[string]float64 {
	by := map[string][]float64{}
	for _, t := range ss.tracks {
		for _, s := range t.spans {
			by[s.name] = append(by[s.name], (s.end - s.start - s.child).Seconds())
		}
	}
	out := map[string]float64{}
	for name, xs := range by {
		out[name] = median(xs)
	}
	return out
}

// writeChrome writes the spans as Chrome-trace JSON ("X" complete
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly.
func (ss *spanSet) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var evs []event
	for _, t := range ss.tracks {
		for _, s := range t.spans {
			evs = append(evs, event{
				Name: s.name, Ph: "X", Pid: 1, Tid: t.id,
				Ts:   float64(s.start.Nanoseconds()) / 1e3,
				Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
				Args: map[string]any{"cell": s.cell, "self_us": float64((s.end - s.start - s.child).Nanoseconds()) / 1e3},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- machine-drift probe -------------------------------------------------

// calibKernel is a fixed, benchmark-owned reference workload exercising
// what the simulator leans on hardest: goroutine handoff over unbuffered
// channels, map churn and small allocations. Its time is independent of
// the simulator's code, so two runs whose kernels differ by more than
// 10% ran on machines (or machine states) too different to compare.
func calibKernel() float64 {
	start := time.Now()
	req, resp := make(chan int), make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range req {
			resp <- v + 1
		}
	}()
	for i := 0; i < 2000; i++ {
		req <- i
		<-resp
	}
	close(req)
	<-done

	m := make(map[int]int)
	for i := 0; i < 20000; i++ {
		m[i*7919%4096] += i
		if i%3 == 0 {
			delete(m, i*31%4096)
		}
	}
	for i := 0; i < 20000; i++ {
		b := make([]byte, 16+i%112) // variable size: always a heap allocation
		m[i%4096] += len(b)
	}
	return float64(time.Since(start).Nanoseconds())
}
