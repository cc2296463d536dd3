package main

// The -submit passthrough: the same requests a local run executes,
// executed by a running svtsimd daemon instead of in-process. Progress
// streams to stderr, result lines print to stdout, and -trace/-metrics
// fetch the daemon's rendered artifacts.

import (
	"context"
	"fmt"
	"os"
	"strings"

	"svtsim/internal/obs"
	"svtsim/internal/server"
)

// runRemote runs each canonical request on the daemon at -submit in
// order, streaming progress to stderr and printing result lines like a
// local run would; -trace and -metrics fetch the last request's
// artifacts.
func runRemote(o *options, reqs []*server.Request) (int, error) {
	c := server.NewClient(o.submit)
	ctx := context.Background()
	progress := func(ev server.ProgressEvent) {
		if ev.Stage != "" {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s\n", ev.Done, ev.Total, ev.Stage, ev.Detail)
		}
	}
	var id string
	for _, req := range reqs {
		header(req)
		sub, res, err := c.Run(ctx, req, progress)
		if err != nil {
			return 1, err
		}
		state := "done"
		if sub.Cached {
			state = "cache hit"
		}
		fmt.Fprintf(os.Stderr, "%s: %s (digest %.12s...)\n", sub.ID, state, sub.Digest)
		for _, line := range res.Lines {
			fmt.Println(line)
		}
		id = sub.ID
	}
	metrics := obs.ArtifactMetricsCSV
	if strings.HasSuffix(o.metrics, ".json") {
		metrics = obs.ArtifactMetricsJSON
	}
	for _, a := range [...]struct{ name, path string }{{obs.ArtifactTrace, o.trace}, {metrics, o.metrics}} {
		if a.path == "" {
			continue
		}
		b, err := c.Artifact(ctx, id, a.name)
		if err == nil {
			err = os.WriteFile(a.path, b, 0o644)
		}
		if err != nil {
			return 1, fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d bytes to %s\n", a.name, len(b), a.path)
	}
	return 0, nil
}
