// Serve: simulation-as-a-service. Submit a density sweep and a
// migration storm to a svtsimd daemon, print the streamed progress and
// the per-mode result lines, then resubmit the storm to show the
// content-addressed cache answering instantly with byte-identical
// results.
//
// By default the example hosts the server in-process (no daemon
// needed); point -url at a running `svtsimd -listen ...` to drive an
// external one — the CI smoke test does exactly that.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"svtsim/internal/server"
)

func main() {
	url := flag.String("url", "", "base URL of a running svtsimd (empty = host one in-process)")
	topo := flag.String("host", "1x4x2", "host topology (sockets x cores x SMT)")
	vms := flag.Int("vms", 6, "max nested VMs to pack / storm over")
	flag.Parse()

	if *url == "" {
		srv := server.New(server.Config{Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		*url = ts.URL
		fmt.Printf("hosting svtsimd in-process at %s\n", *url)
	}
	c := server.NewClient(*url)
	ctx := context.Background()
	if err := c.WaitHealthy(ctx, 5*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	show := func(ev server.ProgressEvent) {
		if ev.Stage != "" {
			fmt.Printf("  [%d/%d] %s %s\n", ev.Done, ev.Total, ev.Stage, ev.Detail)
		}
	}

	fmt.Printf("\n=== density sweep (%s, up to %d VMs) ===\n", *topo, *vms)
	density := &server.Request{Kind: server.KindDensity, Topology: *topo, VMs: *vms}
	_, res, err := c.Run(ctx, density, show)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	for _, line := range res.Lines {
		fmt.Println(line)
	}

	fmt.Printf("\n=== migration storm (%s, %d VMs) ===\n", *topo, *vms)
	storm := &server.Request{Kind: server.KindStorm, Topology: *topo, VMs: *vms, Storms: 6}
	_, res, err = c.Run(ctx, storm, show)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	for _, line := range res.Lines {
		fmt.Println(line)
	}

	fmt.Println("\n=== resubmit the storm: content-addressed cache hit ===")
	start := time.Now()
	sub, err := c.Submit(ctx, &server.Request{Kind: server.KindStorm, Topology: *topo, VMs: *vms, Storms: 6})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	fmt.Printf("cached=%v in %v (digest %.16s...)\n", sub.Cached, time.Since(start).Round(time.Microsecond), sub.Digest)
	if !sub.Cached {
		fmt.Fprintln(os.Stderr, "serve: expected a cache hit on resubmission")
		os.Exit(1)
	}
	stats, err := c.CacheStats(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	fmt.Printf("cache: %d entries, %d bytes, %d hits / %d misses\n",
		stats.Entries, stats.Bytes, stats.Hits, stats.Misses)
}
