package obs

// EndpointStats is the serving-side counterpart of the simulation
// metrics registry: per-endpoint request counters and latency
// histograms for svtsimd's HTTP surface. A latency histogram counts
// every request for .count and .mean but keeps only the most recent
// 1024 latencies for .p50 and .p99, so a long-lived daemon's memory and
// scrape cost stay bounded. Unlike Registry — whose
// instruments are deliberately lock-free because each simulated machine
// owns its plane — EndpointStats is hit from concurrent HTTP handler
// goroutines, so every touch goes through one mutex. Export snapshots
// the live values into a fresh Registry so the existing CSV/JSON
// writers (sorted names, deterministic formatting) render it.

import (
	"sync"

	"svtsim/internal/stats"
)

// epStat is one endpoint's live tallies.
type epStat struct {
	requests  uint64
	status4xx uint64
	status5xx uint64
	latencyMs stats.Histogram
}

// EndpointStats tracks per-endpoint request counts, error counts, and
// wall-clock latency histograms. The zero value is not ready; use
// NewEndpointStats.
type EndpointStats struct {
	mu sync.Mutex
	m  map[string]*epStat
}

// NewEndpointStats returns an empty, ready-to-use stats table.
func NewEndpointStats() *EndpointStats {
	return &EndpointStats{m: make(map[string]*epStat)}
}

// Observe records one served request: its endpoint label (the route
// pattern, not the raw URL, so cardinality stays bounded), the HTTP
// status code, and the wall-clock latency in milliseconds.
func (s *EndpointStats) Observe(endpoint string, status int, latencyMs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.m[endpoint]
	if st == nil {
		st = &epStat{}
		s.m[endpoint] = st
	}
	st.requests++
	switch {
	case status >= 500:
		st.status5xx++
	case status >= 400:
		st.status4xx++
	}
	st.latencyMs.Add(latencyMs)
}

// Export snapshots the table into a fresh Registry under
// "http.<endpoint>." names, then hands the registry to extra (when
// non-nil) so the caller can graft gauges of its own — cache sizes,
// queue depth — before rendering. The returned registry is a private
// snapshot: rendering it races with nothing.
func (s *EndpointStats) Export(extra func(*Registry)) *Registry {
	r := NewRegistry()
	s.mu.Lock()
	for ep, st := range s.m {
		prefix := "http." + ep
		r.Counter(prefix + ".requests").Add(st.requests)
		r.Counter(prefix + ".4xx").Add(st.status4xx)
		r.Counter(prefix + ".5xx").Add(st.status5xx)
		r.RegisterHistogram(prefix+".latency_ms", st.latencyMs.Clone())
	}
	s.mu.Unlock()
	if extra != nil {
		extra(r)
	}
	return r
}
