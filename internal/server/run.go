package server

// Request execution: one canonical request, one fresh exp.Session, one
// deterministic line-oriented result. Every branch funnels through the
// context-aware experiment bodies so cancellation (per-job timeout,
// drain-deadline) and progress streaming work uniformly, and sweeps fan
// their cells out on the session's SimWorkers-wide pool. Nothing here
// may read wall-clock time into the result — the output must be a pure
// function of the canonical request, or the content-addressed cache
// would lie.

import (
	"context"
	"fmt"

	"svtsim/internal/check"
	"svtsim/internal/exp"
	"svtsim/internal/host"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

// sessionFor assembles the experiment session a canonical request runs
// on. simWorkers is the server-wide pool width for in-job sweep fan-out
// (traced jobs force 1 so the captured plane is the same machine's on
// every run).
func sessionFor(req *Request, simWorkers int) (*exp.Session, error) {
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
	es.SetShards(req.Shards)
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

// execute runs a canonical request to completion and returns the cache
// entry its bytes live in. ctx cancellation (timeout, drain) surfaces
// as an error between simulation steps.
func (s *Server) execute(ctx context.Context, j *job) (*cacheEntry, error) {
	req := j.req
	es, err := sessionFor(req, s.cfg.SimWorkers)
	if err != nil {
		return nil, err
	}
	pr := j.progressFunc()

	var lines []string
	switch req.Kind {
	case KindDensity:
		results, err := es.DensitySweepContext(ctx, req.parsedModes(), req.VMs, req.SLOUs, pr)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			for _, pt := range res.Points {
				lines = append(lines, pt.StatsLine())
			}
		}
		for _, res := range results {
			lines = append(lines, res.SummaryLine())
		}
	case KindStorm:
		results, err := es.StormTableContext(ctx, req.parsedModes(), req.VMs, req.Storms, req.Seed, pr)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			lines = append(lines, r.StatsLine())
		}
	case KindFleet:
		r, err := es.FleetReplayJob(ctx, sim.Time(req.DurMs)*sim.Millisecond, 0, req.CrossEvery, pr)
		if err != nil {
			return nil, err
		}
		lines = append(lines, r.FleetReplayLine())
	case KindCheck:
		lines, err = runCheck(ctx, req, pr)
		if err != nil {
			return nil, err
		}
	case KindFaultGrid:
		cells, err := req.faultCells()
		if err != nil {
			return nil, err
		}
		results, err := es.FaultSweepGridContext(ctx, cells, pr)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			lines = append(lines, r.StatsLine())
		}
	case KindWorkload:
		lines, err = runWorkload(ctx, es, req, pr)
		if err != nil {
			return nil, err
		}
	case KindLB:
		results, err := es.LoadBalancerTableContext(ctx, req.parsedModes(), req.VMs,
			req.Scenario, req.Seed, req.SLOUs, pr)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			lines = append(lines, r.StatsLine())
		}
	default:
		return nil, fmt.Errorf("server: unreachable kind %q", req.Kind)
	}

	result := &Result{Digest: j.digest, Kind: req.Kind, Lines: lines}
	body := result.Encode()
	var artifacts map[string][]byte
	if req.Trace {
		artifacts, err = obs.RenderArtifacts(es.LastObs())
		if err != nil {
			return nil, err
		}
	}
	return &cacheEntry{digest: j.digest, body: body, artifacts: artifacts,
		size: entrySize(body, artifacts)}, nil
}

// runCheck drives the differential oracle over consecutive seeds with
// per-schedule progress and cancellation. Repro shrinking/writing stays
// a CLI affair — the server reports verdicts, it does not own a disk
// corpus.
func runCheck(ctx context.Context, req *Request, pr exp.ProgressFunc) ([]string, error) {
	p, err := ports.Parse(req.Port)
	if err != nil {
		return nil, err
	}
	var lines []string
	failures := 0
	for i := 0; i < req.Schedules; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := req.Seed + int64(i)
		v := check.CheckSchedule(check.Generate(seed), &check.RunOpts{Port: p})
		if v.Failed() {
			failures++
		}
		lines = append(lines, v.String())
		pr(exp.ProgressEvent{Stage: "check", Done: i + 1, Total: req.Schedules,
			Detail: fmt.Sprintf("seed=%d", seed)})
	}
	lines = append(lines, fmt.Sprintf(
		"checked %d schedules (seeds %d..%d): %d failing",
		req.Schedules, req.Seed, req.Seed+int64(req.Schedules)-1, failures))
	return lines, nil
}

// faultCells expands a faultgrid request into one cell per mode.
func (r *Request) faultCells() ([]exp.FaultCell, error) {
	spec, err := r.buildFaultSpec()
	if err != nil {
		return nil, err
	}
	var cells []exp.FaultCell
	for _, m := range r.parsedModes() {
		cells = append(cells, exp.FaultCell{
			Mode: m, Spec: spec, N: r.N,
			Storms: r.Storms, StormSeed: r.Seed,
		})
	}
	return cells, nil
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
		pr(exp.ProgressEvent{Stage: "workload", Done: i + 1, Total: len(modes),
			Detail: fmt.Sprintf("mode=%s", mode)})
	}
	return lines, nil
}
