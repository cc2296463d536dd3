package server

import (
	"context"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"svtsim/internal/obs"
)

// ciCurlPaths are the paths the CI workflow reaches with curl, the one
// caller of the daemon that is not Go.
var ciCurlPaths = []string{"/v1/healthz", "/v1/cache", "/v1/metrics"}

// TestEveryRouteHasACaller extends TestNoTestOnlyExports to the wire. It
// drives every non-test caller of the daemon — the Client methods that
// cmd/, bench/ and examples/ call, and the paths CI curls — and fails
// when a route in the table served none of them. A route that only
// tests reach is surface no one uses: delete it, or add its caller here
// once a program calls it.
func TestEveryRouteHasACaller(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	if err := c.WaitHealthy(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Run is Submit, Stream, Job and Result; bench/ calls Submit, Stream
	// and ResultBytes itself.
	traced := &Request{Kind: KindWorkload, Workload: "cpuid", N: 50, Modes: []string{"hw"}, Trace: true}
	sub, _, err := c.Run(ctx, traced, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ResultBytes(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Artifact(ctx, sub.ID, obs.ArtifactTrace); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CacheStats(ctx); err != nil {
		t.Fatal(err)
	}

	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range ciCurlPaths {
		curled := regexp.MustCompile(`(?m)^\s*curl .*:\S*` + regexp.QuoteMeta(path) + `(\s|$)`)
		if !curled.Match(ci) {
			t.Errorf("ci.yml no longer curls %s: drop it from ciCurlPaths", path)
		}
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}

	metrics := s.MetricsText()
	for _, rt := range routes {
		served := regexp.MustCompile(`(?m)^http\.` + rt.endpoint + `\.requests,[1-9]`)
		if !served.MatchString(metrics) {
			t.Errorf("route %q served no non-test caller: delete it, or add its caller to this test", rt.pattern)
		}
	}
	if t.Failed() {
		t.Logf("metrics:\n%s", strings.TrimSpace(metrics))
	}
}
