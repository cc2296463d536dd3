package server

// Request execution: one canonical request, one exp.Session, one
// deterministic line-oriented result. The session is fresh but for its
// phase-1 memo, which the daemon shares across requests (memo.go).
// Every branch funnels through the context-aware experiment bodies so
// cancellation (per-job timeout, drain-deadline) and progress streaming
// work uniformly, and sweeps fan their cells out on the session's
// SimWorkers-wide pool. Nothing here
// may read wall-clock time into the result — the output must be a pure
// function of the canonical request, or the content-addressed cache
// would lie.

import (
	"context"
	"fmt"
	"strings"

	"svtsim/internal/check"
	"svtsim/internal/exp"
	"svtsim/internal/host"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

// SessionFor assembles the experiment session a canonical request runs
// on. simWorkers is the pool width for in-job sweep fan-out (0 =
// GOMAXPROCS); traced requests force 1 so the captured plane is the
// same machine's on every run.
func SessionFor(req *Request, simWorkers int) (*exp.Session, error) {
	es := exp.NewSession()
	p, err := ports.Parse(req.Port)
	if err != nil {
		return nil, err
	}
	es.SetPort(p)
	topo, err := host.ParseTopology(req.Topology)
	if err != nil {
		return nil, err
	}
	if err := es.SetTopology(topo); err != nil {
		return nil, err
	}
	workers := simWorkers
	if req.Trace {
		workers = 1
		es.SetObs(&obs.Options{})
	}
	es.SetParallelism(workers)
	spec, err := req.buildFaultSpec()
	if err != nil {
		return nil, err
	}
	if spec != nil && len(spec.Sites) > 0 {
		es.SetFaults(spec)
	}
	return es, nil
}

// Run executes a canonical request (see Canonicalize) and returns its
// deterministic result lines and, for a traced request, the obs plane
// of its last instrumented machine. svtsimd's workers and the svtsim
// CLI both run requests through it. ctx cancellation (timeout, drain)
// surfaces as an error between simulation steps; pr (nil for none)
// receives a progress event after each step.
func Run(ctx context.Context, req *Request, simWorkers int, pr exp.ProgressFunc) ([]string, *obs.Plane, error) {
	return run(ctx, req, simWorkers, nil, pr)
}

// run is Run with the session's phase-1 memo set to memo when it is not
// nil.
func run(ctx context.Context, req *Request, simWorkers int, memo *exp.Memo, pr exp.ProgressFunc) ([]string, *obs.Plane, error) {
	es, err := SessionFor(req, simWorkers)
	if err != nil {
		return nil, nil, err
	}
	if memo != nil {
		es.SetMemo(memo)
	}
	var lines []string
	switch req.Kind {
	case KindDensity:
		var results []exp.DensityResult
		results, err = es.DensitySweepContext(ctx, req.parsedModes(), req.VMs, req.SLOUs, pr)
		for _, res := range results {
			for _, pt := range res.Points {
				lines = append(lines, pt.StatsLine())
			}
		}
		for _, res := range results {
			lines = append(lines, res.SummaryLine())
		}
	case KindStorm:
		lines, err = statsLines(es.StormTableContext(ctx, req.parsedModes(), req.VMs, req.Storms, req.Seed, pr))
	case KindFleet:
		var r exp.FleetReplayResult
		r, err = es.FleetReplayJob(ctx, sim.Time(req.DurMs)*sim.Millisecond, req.CrossEvery, pr)
		lines = []string{r.FleetReplayLine()}
	case KindCheck:
		// The daemon reports verdicts; shrinking and repro files stay
		// with the CLI, which owns a disk corpus.
		var b strings.Builder
		_, err = check.RunBudgetOpts(ctx, &b, req.Schedules, req.Seed, "", &check.RunOpts{Port: es.Port()}, pr)
		lines = strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	case KindWorkload:
		lines, err = runWorkload(ctx, es, req, pr)
	case KindLB:
		lines, err = statsLines(es.LoadBalancerTableContext(ctx, req.parsedModes(), req.VMs,
			req.Scenario, req.Seed, req.SLOUs, pr))
	default:
		err = fmt.Errorf("server: unreachable kind %q", req.Kind)
	}
	if err != nil {
		return nil, nil, err
	}
	return lines, es.LastObs(), nil
}

// execute runs a job's request and returns the cache entry its bytes
// live in.
func (s *Server) execute(ctx context.Context, j *job) (*cacheEntry, error) {
	lines, plane, err := run(ctx, j.req, s.cfg.SimWorkers, s.memos.get(j.req), j.progressFunc())
	if err != nil {
		return nil, err
	}
	body := (&Result{Digest: j.digest, Kind: j.req.Kind, Lines: lines}).Encode()
	var artifacts map[string][]byte
	if j.req.Trace {
		artifacts, err = obs.RenderArtifacts(plane)
		if err != nil {
			return nil, err
		}
	}
	return &cacheEntry{digest: j.digest, body: body, artifacts: artifacts,
		size: entrySize(body, artifacts)}, nil
}

// statsLines renders a sweep's rows, one StatsLine each.
func statsLines[T interface{ StatsLine() string }](rows []T, err error) ([]string, error) {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.StatsLine()
	}
	return lines, err
}

// runWorkload runs one single-machine figure workload under every
// requested mode, one deterministic line per mode.
func runWorkload(ctx context.Context, es *exp.Session, req *Request, pr exp.ProgressFunc) ([]string, error) {
	modes := req.parsedModes()
	d := sim.Time(req.DurMs) * sim.Millisecond
	var lines []string
	for i, mode := range modes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var line string
		switch req.Workload {
		case "cpuid":
			r := es.CPUIDNested(mode, req.N)
			line = fmt.Sprintf("mode=%s workload=cpuid n=%d perop=%v", mode, req.N, r.PerOp)
		case "netrr":
			r := es.NetLatency(mode, req.N)
			line = fmt.Sprintf("mode=%s workload=netrr n=%d meanus=%.3f p99us=%.3f", mode, req.N, r.MeanUs, r.P99Us)
		case "stream":
			r := es.NetBandwidth(mode, d)
			line = fmt.Sprintf("mode=%s workload=stream durms=%d mbps=%.3f", mode, req.DurMs, r.Mbps)
		case "diskrd":
			r := es.DiskLatency(mode, false, req.N)
			line = fmt.Sprintf("mode=%s workload=diskrd n=%d meanus=%.3f", mode, req.N, r.MeanUs)
		case "diskwr":
			r := es.DiskLatency(mode, true, req.N)
			line = fmt.Sprintf("mode=%s workload=diskwr n=%d meanus=%.3f", mode, req.N, r.MeanUs)
		case "memcached":
			r := es.Memcached(mode, req.Rate, d)
			line = fmt.Sprintf("mode=%s workload=memcached rate=%.0f durms=%d avgus=%.3f p99us=%.3f served=%d",
				mode, req.Rate, req.DurMs, r.AvgUs, r.P99Us, r.Served)
		case "tpcc":
			ktpm := es.TPCC(mode, d)
			line = fmt.Sprintf("mode=%s workload=tpcc durms=%d ktpm=%.3f", mode, req.DurMs, ktpm)
		case "video":
			r := es.VideoN(mode, req.FPS, req.FPS*60)
			line = fmt.Sprintf("mode=%s workload=video fps=%d dropped=%d played=%d", mode, req.FPS, r.Dropped, r.Played)
		default:
			return nil, fmt.Errorf("server: unreachable workload %q", req.Workload)
		}
		lines = append(lines, line)
		if pr != nil {
			pr(exp.ProgressEvent{Stage: "workload", Done: i + 1, Total: len(modes),
				Detail: fmt.Sprintf("mode=%s", mode)})
		}
	}
	return lines, nil
}
