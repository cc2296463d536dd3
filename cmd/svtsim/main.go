// Command svtsim runs the simulated nested virtualization stack's
// experiments: the paper's single-machine workloads under one system
// variant, and the fleet sweeps across all four.
//
// Every workload and sweep is one svtsimd request (server.Request): the
// command line maps onto it, server.Request.Canonicalize fills the
// defaults, and the daemon's executor, server.Run, runs it — in-process,
// or on a daemon with -submit. stdout carries the request's result
// lines, byte for byte what svtsimd serves for it; headers go to stderr.
//
//	svtsim -mode sw-svt -workload netrr -n 200
//	svtsim -mode hw-svt -workload tpcc -dur 1s
//	svtsim -host 1x4x2 -vms 8 -density -slo 250 -parallel 8
//	svtsim -storm 24 -vms 8 -host 2x8x2 -storm-seed 42
//	svtsim -lb 8 -lb-scenario all -parallel 2
//	svtsim -port armlike -mode hw-svt -workload netrr -n 200
//	svtsim -submit http://127.0.0.1:8080 -storm 12 -vms 6 -host 1x4x2
//
// -density packs k = 1..-vms nested VMs per mode onto the -host
// topology and reports each packing level plus the max density meeting
// the -slo p99 target; -storm batters a packed fleet with N seeded gang
// migrations; -lb sprays open-loop traffic from an L0 balancer across N
// nested backends under a scenario (steady, overload, burst, storm,
// faults, or all). Sweeps are byte-identical at any -parallel width.
//
// -trace out.json writes a Perfetto / chrome://tracing timeline,
// -metrics out.csv dumps every registered counter, and -summary N prints
// a top-N "where did the cycles go" table. They never perturb the
// result lines, and force -parallel 1 so the exported plane is the same
// machine's on every run.
//
// Some paths run in-process only: -check N differentially checks N
// generated schedules across all modes and writes shrunk repro files
// (-submit -check reports verdicts only); -replay FILE re-runs one
// schedule file; -migrate overlays live-migration points on a schedule;
// -portcmp prints the per-port comparison table; -dump-exits lists the
// newest exits of a cpuid run.
//
//	svtsim -check 25 -check-seed 1
//	svtsim -replay repro-7.sched
//	svtsim -migrate 2:0,5:3 -check-seed 7
//	svtsim -portcmp -n 400
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"svtsim"
	"svtsim/internal/exp"
	"svtsim/internal/obs"
	"svtsim/internal/report"
	"svtsim/internal/server"
)

// options is the parsed command line. A flag that only feeds a request
// field defaults to zero, so server.Request.Canonicalize is the one
// place its default is chosen.
type options struct {
	mode, port, workload, host, faults, lbScen              string
	trace, metrics, checkDir, replay, migrate, submit       string
	n, fps, vms, par, summary, dumpExits, checkN, storm, lb int
	checkSeed, faultSeed, stormSeed, lbSeed                 int64
	rate, slo, lbSLO                                        float64
	dur                                                     time.Duration
	density, portCmp                                        bool
}

// parseFlags registers svtsim's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.mode, "mode", "baseline", "system variant: baseline, sw-svt, hw-svt, hw-svt-bypass")
	fs.StringVar(&o.port, "port", "", "architecture port: "+strings.Join(svtsim.PortNames(), ", ")+" (default x86)")
	fs.BoolVar(&o.portCmp, "portcmp", false, "run the cross-ISA comparison (every port x every mode, netrr workload), then exit")
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(server.WorkloadNames(), ", ")+" (default cpuid)")
	fs.IntVar(&o.n, "n", 0, "iterations for cpuid/netrr/diskrd/diskwr and -portcmp (0 = default 500)")
	fs.DurationVar(&o.dur, "dur", 0, "duration for stream/memcached/tpcc, in whole milliseconds (0 = default 1s)")
	fs.Float64Var(&o.rate, "rate", 0, "offered load in requests/s for memcached (0 = default 10000)")
	fs.IntVar(&o.fps, "fps", 0, "frame rate for video (0 = default 120)")
	fs.StringVar(&o.host, "host", "", "host topology for the fleet sweeps: sockets x cores x SMT contexts (default 2x8x2)")
	fs.IntVar(&o.vms, "vms", 0, "VMs for -storm (0 = 8) and max packing level for -density (0 = the topology's context count)")
	fs.BoolVar(&o.density, "density", false, "run the fleet consolidation sweep across all modes, then exit")
	fs.Float64Var(&o.slo, "slo", 0, "p99 latency SLO in microseconds judged by -density (0 = default 500)")
	fs.IntVar(&o.par, "parallel", 0, "worker-pool width for sweeps (0 = GOMAXPROCS; results identical at any width)")
	fs.StringVar(&o.trace, "trace", "", "write a Perfetto/chrome://tracing JSON timeline of the run to this file")
	fs.StringVar(&o.metrics, "metrics", "", "write the metrics registry to this file (.json extension selects JSON, CSV otherwise)")
	fs.IntVar(&o.summary, "summary", 0, "print the top-N trace span summary after the run")
	fs.IntVar(&o.dumpExits, "dump-exits", 0, "after a cpuid run, list the N newest VM exits L0 handled, by start time")
	fs.StringVar(&o.faults, "faults", "", "fault spec: site:key=val,...;... (sites: "+strings.Join(svtsim.FaultSites(), ", ")+")")
	fs.Int64Var(&o.faultSeed, "fault-seed", 0, "fault plane RNG seed; replays are byte-identical per seed (0 = default 1)")
	fs.IntVar(&o.checkN, "check", 0, "differentially check N generated schedules across all modes, then exit")
	fs.Int64Var(&o.checkSeed, "check-seed", 1, "first schedule seed for -check (seeds are consecutive)")
	fs.StringVar(&o.checkDir, "check-dir", ".", "directory for shrunk repro files written by -check")
	fs.StringVar(&o.replay, "replay", "", "replay a schedule file through the differential check, then exit")
	fs.StringVar(&o.migrate, "migrate", "", "live-migration points after:fails[,after:fails...] overlaid on the -check-seed schedule, differentially checked, then exit (fails>=3 forces rollback)")
	fs.IntVar(&o.storm, "storm", 0, "run a seeded storm of N live gang migrations over -vms packed VMs per mode, then exit")
	fs.Int64Var(&o.stormSeed, "storm-seed", 0, "storm plan seed for -storm; runs are byte-identical per seed (0 = default 42)")
	fs.IntVar(&o.lb, "lb", 0, "run the load-balancer scenario with N nested backend VMs per mode, then exit")
	fs.StringVar(&o.lbScen, "lb-scenario", "", "lb scenario: "+strings.Join(svtsim.LBScenarios(), ", ")+", or all (default steady)")
	fs.Int64Var(&o.lbSeed, "lb-seed", 0, "lb arrival/storm/loss seed; runs are byte-identical per seed (0 = default 42)")
	fs.Float64Var(&o.lbSLO, "lb-slo", 0, "per-request latency SLO in microseconds judged by -lb (0 = default 1000)")
	fs.StringVar(&o.submit, "submit", "", "run via a svtsimd daemon at this base URL (e.g. http://127.0.0.1:8080) instead of in-process")
	return o, fs.Parse(args)
}

// wantObs reports whether the run must capture an observability plane.
func (o *options) wantObs() bool { return o.trace != "" || o.metrics != "" || o.summary > 0 }

// request returns a request carrying the fields every kind shares.
func (o *options) request() *server.Request {
	return &server.Request{
		Topology: o.host, Port: o.port,
		Faults: o.faults, FaultSeed: o.faultSeed,
		Trace: o.wantObs(),
	}
}

// requests maps the command line onto the server requests that run it:
// one per scenario, in report order, for -lb-scenario all, and one
// otherwise. Sweeps leave Modes empty and so run every mode; workloads
// run -mode. With -submit, flags that have no served form are refused.
func requests(o *options) ([]*server.Request, error) {
	if o.submit != "" {
		switch {
		case o.replay != "" || o.migrate != "":
			return nil, errors.New("-replay and -migrate need local repro files; run them without -submit")
		case o.portCmp:
			return nil, errors.New("-portcmp has no served form; run it without -submit")
		case o.summary > 0 || o.dumpExits > 0:
			return nil, errors.New("-summary and -dump-exits print in-process results; run them without -submit (-trace and -metrics fetch the served artifacts)")
		}
	}
	req := o.request()
	switch {
	case o.density:
		req.Kind, req.VMs, req.SLOUs = server.KindDensity, o.vms, o.slo
	case o.storm > 0:
		req.Kind, req.VMs, req.Storms, req.Seed = server.KindStorm, o.vms, o.storm, o.stormSeed
	case o.lb > 0:
		req.Kind, req.VMs, req.Scenario, req.Seed, req.SLOUs = server.KindLB, o.lb, o.lbScen, o.lbSeed, o.lbSLO
		if o.lbScen == "all" {
			var reqs []*server.Request
			for _, scen := range exp.LBScenarios() {
				r := *req
				r.Scenario = scen
				reqs = append(reqs, &r)
			}
			return reqs, nil
		}
	case o.checkN > 0:
		req.Kind, req.Schedules, req.Seed = server.KindCheck, o.checkN, o.checkSeed
	default:
		if o.dur%time.Millisecond != 0 {
			return nil, fmt.Errorf("-dur %v: requests carry whole milliseconds", o.dur)
		}
		req.Kind, req.Workload, req.Modes = server.KindWorkload, o.workload, []string{o.mode}
		req.N, req.DurMs, req.Rate, req.FPS = o.n, int(o.dur.Milliseconds()), o.rate, o.fps
	}
	return []*server.Request{req}, nil
}

// header describes a request on stderr; stdout carries only the result
// lines, so it is the same for local and served runs.
func header(req *server.Request) {
	switch req.Kind {
	case server.KindStorm:
		fmt.Fprintf(os.Stderr, "migration storm: %d VMs, %d events, seed %d, host %s\n",
			req.VMs, req.Storms, req.Seed, req.Topology)
	case server.KindLB:
		fmt.Fprintf(os.Stderr, "load balancer: %d VMs, scenario %s, seed %d, slo %.0f us, host %s\n",
			req.VMs, req.Scenario, req.Seed, req.SLOUs, req.Topology)
	}
	if req.Faults != "" {
		fmt.Fprintf(os.Stderr, "fault plane armed: faults=%q (seed %d)\n", req.Faults, req.FaultSeed)
	}
}

// parseMigratePoints parses the -migrate syntax "after:fails[,...]".
func parseMigratePoints(arg string) ([]svtsim.MigratePoint, error) {
	var pts []svtsim.MigratePoint
	for _, part := range strings.Split(arg, ",") {
		var after, fails int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &after, &fails); err != nil {
			return nil, fmt.Errorf("-migrate %q: want after:fails[,after:fails...]", arg)
		}
		if after < 0 || fails < 0 || fails > 8 {
			return nil, fmt.Errorf("-migrate %q: after must be >= 0 and fails in 0..8", arg)
		}
		pts = append(pts, svtsim.MigratePoint{After: after, Fails: fails})
	}
	return pts, nil
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // ExitOnError
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

// run executes the command line and returns the process exit code: 2
// for a command line that names no valid experiment, 1 for a failed
// run.
func run(o *options) (int, error) {
	if o.submit == "" && (o.portCmp || o.checkN > 0 || o.replay != "" || o.migrate != "") {
		return runLocalOnly(o)
	}
	reqs, err := requests(o)
	if err != nil {
		return 2, err
	}
	for _, req := range reqs {
		if err := req.Canonicalize(); err != nil {
			return 2, err
		}
	}
	if o.submit != "" {
		return runRemote(o, reqs)
	}
	var plane *obs.Plane
	for _, req := range reqs {
		header(req)
		lines, p, err := server.Run(context.Background(), req, o.par, nil)
		if err != nil {
			return 1, err
		}
		for _, line := range lines {
			fmt.Println(line)
		}
		plane = p
		if o.dumpExits > 0 && req.Kind == server.KindWorkload && req.Workload == "cpuid" {
			es, err := server.SessionFor(req, o.par)
			if err != nil {
				return 1, err
			}
			mode, _ := svtsim.ParseMode(req.Modes[0])
			for _, e := range es.TraceNestedCPUID(mode, req.N, o.dumpExits) {
				fmt.Println(" ", e.String())
			}
		}
	}
	if o.wantObs() {
		if err := writeObs(plane, o); err != nil {
			return 1, fmt.Errorf("observability: %w", err)
		}
	}
	return 0, nil
}

// runLocalOnly runs the in-process paths that have no request form:
// -replay, -migrate and -check, which read or write repro files, and
// -portcmp.
func runLocalOnly(o *options) (int, error) {
	if o.wantObs() {
		return 2, errors.New("-trace, -metrics and -summary: -portcmp, -check, -replay and -migrate publish no observability plane")
	}
	switch {
	case o.replay != "":
		if err := svtsim.ReplaySchedule(os.Stdout, o.replay); err != nil {
			return 1, err
		}
		fmt.Printf("%s: equivalent across all modes\n", o.replay)
	case o.checkN > 0:
		port, err := svtsim.ParsePort(o.port)
		if err != nil {
			return 2, err
		}
		if svtsim.CheckSchedulesPort(os.Stdout, o.checkN, o.checkSeed, o.checkDir, port) > 0 {
			return 1, nil
		}
	case o.migrate != "":
		pts, err := parseMigratePoints(o.migrate)
		if err != nil {
			return 2, err
		}
		if err := svtsim.CheckMigratedSchedule(os.Stdout, o.checkSeed, pts); err != nil {
			return 1, err
		}
	default: // -portcmp runs on the session of the netrr workload's request
		req := o.request()
		req.Kind, req.Workload, req.N = server.KindWorkload, "netrr", o.n
		if err := req.Canonicalize(); err != nil {
			return 2, err
		}
		es, err := server.SessionFor(req, o.par)
		if err != nil {
			return 2, err
		}
		report.NewRenderer(es).Ports(os.Stdout, req.N)
	}
	return 0, nil
}

// writeObs exports a run's observability plane to the files and the
// summary the flags ask for.
func writeObs(plane *obs.Plane, o *options) error {
	if plane == nil {
		return errors.New("no plane captured (workload did not run an instrumented machine)")
	}
	if o.trace != "" {
		if err := writeFile(o.trace, plane.Tracer.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s\n", plane.Tracer.Total(), o.trace)
	}
	if o.metrics != "" {
		write := plane.Metrics.WriteCSV
		if strings.HasSuffix(o.metrics, ".json") {
			write = plane.Metrics.WriteJSON
		}
		if err := writeFile(o.metrics, write); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics: wrote %s\n", o.metrics)
	}
	if o.summary > 0 {
		return plane.Tracer.WriteSummary(os.Stdout, o.summary)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
