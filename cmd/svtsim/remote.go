package main

// The -submit passthrough: the same CLI flags, executed by a running
// svtsimd daemon instead of in-process. The flag set maps onto one
// server.Request, progress streams to stderr, result lines print to
// stdout, and -trace/-metrics fetch the daemon's rendered artifacts.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"svtsim/internal/obs"
	"svtsim/internal/server"
)

// remoteFlags is the subset of CLI state the passthrough consumes.
type remoteFlags struct {
	mode, workload, hostStr string
	port                    string
	n, fps, vms             int
	dur                     time.Duration
	rate, slo               float64
	density                 bool
	storm, checkN           int
	stormSeed, checkSeed    int64
	lb                      int
	lbScen                  string
	lbSeed                  int64
	lbSLO                   float64
	faults                  string
	faultSeed               int64
	faultRate               float64
	trace, metrics          string
	replay, migrate         string
}

// remoteRequest maps the CLI flag set onto one server request.
func remoteRequest(f remoteFlags) (*server.Request, error) {
	if f.replay != "" || f.migrate != "" {
		return nil, fmt.Errorf("-replay and -migrate need local repro files; run them without -submit")
	}
	req := &server.Request{
		Topology:  f.hostStr,
		Port:      f.port,
		Faults:    f.faults,
		FaultSeed: f.faultSeed,
		FaultRate: f.faultRate,
		Trace:     f.trace != "" || f.metrics != "",
	}
	switch {
	case f.density:
		req.Kind = server.KindDensity
		req.VMs = f.vms
		req.SLOUs = f.slo
	case f.storm > 0:
		req.Kind = server.KindStorm
		req.VMs = f.vms
		req.Storms = f.storm
		req.Seed = f.stormSeed
	case f.lb > 0:
		if f.lbScen == "all" {
			return nil, fmt.Errorf("-lb-scenario all sweeps locally; submit one scenario per request")
		}
		req.Kind = server.KindLB
		req.VMs = f.lb
		req.Scenario = f.lbScen
		req.Seed = f.lbSeed
		req.SLOUs = f.lbSLO
	case f.checkN > 0:
		req.Kind = server.KindCheck
		req.Schedules = f.checkN
		req.Seed = f.checkSeed
	default:
		req.Kind = server.KindWorkload
		req.Workload = f.workload
		req.Modes = []string{f.mode}
		req.N = f.n
		req.DurMs = int(f.dur.Milliseconds())
		req.Rate = f.rate
		req.FPS = f.fps
	}
	return req, nil
}

// runRemote submits the request to the daemon at url and renders the
// outcome like a local run would. Returns the process exit code.
func runRemote(url string, f remoteFlags) int {
	req, err := remoteRequest(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	c := server.NewClient(url)
	ctx := context.Background()

	sub, err := c.Submit(ctx, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "submit:", err)
		return 1
	}
	if sub.Cached {
		fmt.Fprintf(os.Stderr, "%s: cache hit (digest %.12s...)\n", sub.ID, sub.Digest)
	} else {
		fmt.Fprintf(os.Stderr, "%s: %s (digest %.12s...)\n", sub.ID, sub.State, sub.Digest)
		err = c.Stream(ctx, sub.ID, func(ev server.ProgressEvent) {
			if ev.Stage != "" {
				fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s\n", ev.Done, ev.Total, ev.Stage, ev.Detail)
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stream:", err)
			return 1
		}
	}

	st, err := c.Job(ctx, sub.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if st.State != server.StateDone {
		fmt.Fprintf(os.Stderr, "job %s: %s\n", st.State, st.Error)
		return 1
	}
	res, err := c.Result(ctx, sub.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, line := range res.Lines {
		fmt.Println(line)
	}

	if f.trace != "" {
		if err := fetchArtifact(ctx, c, sub.ID, obs.ArtifactTrace, f.trace); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return 1
		}
	}
	if f.metrics != "" {
		name := obs.ArtifactMetricsCSV
		if strings.HasSuffix(f.metrics, ".json") {
			name = obs.ArtifactMetricsJSON
		}
		if err := fetchArtifact(ctx, c, sub.ID, name, f.metrics); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			return 1
		}
	}
	return 0
}

func fetchArtifact(ctx context.Context, c *server.Client, id, name, path string) error {
	b, err := c.Artifact(ctx, id, name)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: wrote %d bytes to %s\n", name, len(b), path)
	return nil
}
