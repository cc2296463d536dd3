package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestEndpointStatsExport(t *testing.T) {
	s := NewEndpointStats()
	s.Observe("submit", 202, 1.5)
	s.Observe("submit", 400, 0.5)
	s.Observe("submit", 500, 2.0)
	s.Observe("result", 200, 0.25)

	r := s.Export(func(r *Registry) { r.Gauge("cache.bytes").Set(42) })
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"http.submit.requests,3",
		"http.submit.4xx,1",
		"http.submit.5xx,1",
		"http.submit.latency_ms.count,3",
		"http.result.requests,1",
		"cache.bytes,42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

// TestEndpointStatsLatencyWindow: .count and .mean cover every request,
// .p50 and .p99 only the most recent 1024 — older latencies are gone.
func TestEndpointStatsLatencyWindow(t *testing.T) {
	s := NewEndpointStats()
	const n, window = 10000, 1024
	for i := 0; i < n; i++ {
		ms := 1000.0
		if i >= n-window {
			ms = 1
		}
		s.Observe("submit", 200, ms)
	}
	rows := map[string]string{}
	for _, row := range s.Export(nil).Rows() {
		rows[row.Name] = row.Value
	}
	mean := formatFloat(((n-window)*1000.0 + window) / n)
	for name, want := range map[string]string{
		"http.submit.latency_ms.count": "10000",
		"http.submit.latency_ms.mean":  mean,
		"http.submit.latency_ms.p50":   "1",
		"http.submit.latency_ms.p99":   "1",
	} {
		if rows[name] != want {
			t.Errorf("%s = %s, want %s", name, rows[name], want)
		}
	}
}

// TestEndpointStatsConcurrent hammers Observe and Export from many
// goroutines; the run is meaningful under -race (CI runs the obs
// package with the detector on).
func TestEndpointStatsConcurrent(t *testing.T) {
	s := NewEndpointStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Observe("submit", 200+g, float64(i))
				if i%50 == 0 {
					_ = s.Export(nil)
				}
			}
		}(g)
	}
	wg.Wait()
	rows := map[string]string{}
	for _, row := range s.Export(nil).Rows() {
		rows[row.Name] = row.Value
	}
	if got := rows["http.submit.requests"]; got != "1600" {
		t.Fatalf("http.submit.requests = %q, want 1600", got)
	}
}

func TestRenderArtifacts(t *testing.T) {
	if m, err := RenderArtifacts(nil); err != nil || len(m) != 0 {
		t.Fatalf("nil plane: %v, %v", m, err)
	}
	p := New(2, Options{})
	p.Metrics.Counter("x.count").Add(3)
	m, err := RenderArtifacts(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(m[ArtifactTrace]), "traceEvents") {
		t.Errorf("trace artifact malformed: %s", m[ArtifactTrace])
	}
	if !strings.Contains(string(m[ArtifactMetricsCSV]), "x.count,3") {
		t.Errorf("csv artifact missing counter: %s", m[ArtifactMetricsCSV])
	}
	if !strings.Contains(string(m[ArtifactMetricsJSON]), `"x.count": 3`) {
		t.Errorf("json artifact missing counter: %s", m[ArtifactMetricsJSON])
	}
	// Rendering twice is byte-identical — the determinism the cache
	// byte-compare relies on.
	m2, _ := RenderArtifacts(p)
	for name := range m {
		if string(m[name]) != string(m2[name]) {
			t.Errorf("artifact %s not deterministic", name)
		}
	}
}
