// Command svtsim runs a single workload on the simulated nested
// virtualization stack and reports its performance under one of the three
// system variants.
//
// Usage:
//
//	svtsim -mode baseline -workload cpuid -n 1000
//	svtsim -mode sw-svt   -workload netrr -n 200
//	svtsim -mode hw-svt   -workload diskrd -n 200
//	svtsim -mode sw-svt   -workload tpcc -dur 1s
//	svtsim -mode baseline -workload video -fps 120
//
// Fleet consolidation: -density packs k = 1..-vms nested VMs onto the
// -host topology per mode, letting the simulated L0 scheduler place each
// VM's threads, and reports per-VM latency under contention plus the max
// density meeting the -slo p99 target. The sweep is byte-identical at
// any -parallel width.
//
//	svtsim -host 2x8x2 -vms 16 -density
//	svtsim -host 1x4x2 -vms 8 -density -slo 250 -parallel 8
//
// Observability: -trace out.json writes a Perfetto / chrome://tracing
// timeline of the run (one track per hardware context), -metrics out.csv
// dumps every registered counter, and -summary N prints a top-N
// "where did the cycles go" table. None of these perturb the simulated
// results. They force -parallel 1, so the exported plane is the same
// machine's on every run; -portcmp, -check, -replay and -migrate
// publish no plane and refuse them.
//
//	svtsim -mode sw-svt -workload netrr -n 200 -trace out.json -metrics out.csv -summary 10
//
// Differential checking: -check N generates N seeded schedules and runs
// each under every mode, comparing guest-visible outcomes; failures are
// shrunk and written as repro files. -replay FILE re-runs one schedule
// file (a repro or a corpus entry) through the same oracle.
//
//	svtsim -check 25 -check-seed 1
//	svtsim -replay repro-7.sched
//
// Live migration: -migrate overlays snapshot-backed live-migration
// points on a generated schedule and requires the guest-visible outcome
// to be invariant to them (fails>=3 forces a mid-migration rollback);
// -storm packs -vms VMs per mode and batters them with a seeded storm
// of N concurrent gang migrations, reporting per-mode tail latency and
// the recovery counters. Both are byte-identical per seed.
//
//	svtsim -migrate 2:0,5:3 -check-seed 7
//	svtsim -storm 24 -vms 8 -host 2x8x2 -storm-seed 42
//
// Load balancing: -lb sprays an open-loop arrival trace from an
// L0-side balancer across N nested VMs per mode over reliable
// netstack flows and reports goodput, p50/p99/p999 tail latency, and
// SLO-violation windows. Scenarios: steady, overload, burst, storm
// (concurrent gang migrations), faults (seeded segment loss), or all.
// Byte-identical at any -parallel width.
//
//	svtsim -lb 4 -lb-scenario overload -host 1x4x2
//	svtsim -lb 8 -lb-scenario all -parallel 2
//
// Architecture ports: -port selects the ISA backend — "x86" (default;
// VT-x exits, LAPIC, paper Table 1 costs) or "armlike" (trap-to-EL2
// costs, vGIC list registers, NV2-style memory-backed nested state).
// Every experiment above honors it. -portcmp runs the net round-trip
// workload across all registered ports and all four modes in one
// invocation and prints the per-port Figure-6-style comparison table
// (exit counts, mean/p50/p99, SVt speedup, exits by class).
//
//	svtsim -port armlike -mode hw-svt -workload netrr -n 200
//	svtsim -port armlike -density -vms 8
//	svtsim -port armlike -check 25
//	svtsim -portcmp -n 400
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"svtsim"
	"svtsim/internal/fault"
)

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
	var (
		modeStr   = flag.String("mode", "baseline", "system variant: baseline, sw-svt, hw-svt")
		portStr   = flag.String("port", "x86", "architecture port: "+strings.Join(svtsim.PortNames(), ", "))
		portCmp   = flag.Bool("portcmp", false, "run the cross-ISA comparison (every port x every mode, netrr workload), then exit")
		workload  = flag.String("workload", "cpuid", "cpuid, netrr, stream, diskrd, diskwr, memcached, tpcc, video")
		n         = flag.Int("n", 500, "iterations (cpuid/netrr/disk*)")
		dur       = flag.Duration("dur", time.Second, "duration (stream/memcached/tpcc)")
		rate      = flag.Float64("rate", 10000, "offered load in requests/s (memcached)")
		fps       = flag.Int("fps", 120, "frame rate (video)")
		hostStr   = flag.String("host", "2x8x2", "host topology for -density: sockets x cores x SMT contexts")
		vms       = flag.Int("vms", 0, "max packing level for -density (0 = the topology's context count)")
		density   = flag.Bool("density", false, "run the fleet consolidation sweep across all modes, then exit")
		slo       = flag.Float64("slo", 500, "p99 latency SLO in microseconds judged by -density")
		par       = flag.Int("parallel", 0, "worker-pool width for sweeps (0 = GOMAXPROCS; results identical at any width)")
		trace     = flag.String("trace", "", "write a Perfetto/chrome://tracing JSON timeline of the run to this file")
		metrics   = flag.String("metrics", "", "write the metrics registry to this file (.json extension selects JSON, CSV otherwise)")
		summary   = flag.Int("summary", 0, "print the top-N trace span summary after the run")
		obsRing   = flag.Int("obs-ring", 0, "per-track trace ring capacity (0 = default)")
		dumpExits = flag.Int("dump-exits", 0, "after a cpuid run, list the N newest VM exits L0 handled, by start time")
		faults    = flag.String("faults", "", "fault spec: site:key=val,...;... (sites: "+strings.Join(svtsim.FaultSites(), ", ")+")")
		faultSeed = flag.Int64("fault-seed", 1, "fault plane RNG seed (replays are byte-identical per seed)")
		faultRate = flag.Float64("fault-rate", 0, "shorthand: drop SW-SVt wakeups and IPIs at this probability")
		checkN    = flag.Int("check", 0, "differentially check N generated schedules across all modes, then exit")
		checkSeed = flag.Int64("check-seed", 1, "first schedule seed for -check (seeds are consecutive)")
		checkDir  = flag.String("check-dir", ".", "directory for shrunk repro files written by -check")
		replay    = flag.String("replay", "", "replay a schedule file through the differential check, then exit")
		migrate   = flag.String("migrate", "", "live-migration points after:fails[,after:fails...] overlaid on the -check-seed schedule, differentially checked, then exit (fails>=3 forces rollback)")
		storm     = flag.Int("storm", 0, "run a seeded storm of N live gang migrations over -vms packed VMs per mode, then exit")
		stormSeed = flag.Int64("storm-seed", 42, "storm plan seed for -storm (runs are byte-identical per seed)")
		lb        = flag.Int("lb", 0, "run the load-balancer scenario with N nested backend VMs per mode, then exit")
		lbScen    = flag.String("lb-scenario", "steady", "lb scenario: "+strings.Join(svtsim.LBScenarios(), ", ")+", or all")
		lbSeed    = flag.Int64("lb-seed", 42, "lb arrival/storm/loss seed (runs are byte-identical per seed)")
		lbSLO     = flag.Float64("lb-slo", 1000, "per-request latency SLO in microseconds judged by -lb")
		submit    = flag.String("submit", "", "run via a svtsimd daemon at this base URL (e.g. http://127.0.0.1:8080) instead of in-process")
	)
	flag.Parse()

	if *lbScen != "all" && !slices.Contains(svtsim.LBScenarios(), *lbScen) {
		fmt.Fprintf(os.Stderr, "-lb-scenario %q: want all or one of %s\n",
			*lbScen, strings.Join(svtsim.LBScenarios(), ", "))
		os.Exit(2)
	}

	if *submit != "" {
		os.Exit(runRemote(*submit, remoteFlags{
			mode: *modeStr, workload: *workload, hostStr: *hostStr, port: *portStr,
			n: *n, fps: *fps, vms: *vms,
			dur: *dur, rate: *rate, slo: *slo,
			density: *density, storm: *storm, checkN: *checkN,
			stormSeed: *stormSeed, checkSeed: *checkSeed,
			lb: *lb, lbScen: *lbScen, lbSeed: *lbSeed, lbSLO: *lbSLO,
			faults: *faults, faultSeed: *faultSeed, faultRate: *faultRate,
			trace: *trace, metrics: *metrics, summary: *summary,
			replay: *replay, migrate: *migrate,
			portCmp: *portCmp, dumpExits: *dumpExits,
		}))
	}

	wantObs := *trace != "" || *metrics != "" || *summary > 0
	if wantObs && (*portCmp || *checkN > 0 || *replay != "" || *migrate != "") {
		fmt.Fprintln(os.Stderr, "-trace, -metrics and -summary: -portcmp, -check, -replay and -migrate publish no observability plane")
		os.Exit(2)
	}

	if *replay != "" {
		if err := svtsim.ReplaySchedule(os.Stdout, *replay); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: equivalent across all modes\n", *replay)
		return
	}
	port, err := svtsim.ParsePort(*portStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *checkN > 0 {
		if svtsim.CheckSchedulesPort(os.Stdout, *checkN, *checkSeed, *checkDir, port) > 0 {
			os.Exit(1)
		}
		return
	}
	if *migrate != "" {
		pts, err := parseMigratePoints(*migrate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := svtsim.CheckMigratedSchedule(os.Stdout, *checkSeed, pts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	topo, err := svtsim.ParseHostTopology(*hostStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sess := svtsim.NewSession()
	sess.SetPort(port)
	sess.SetParallelism(*par)
	if err := sess.SetTopology(topo); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if spec, err := fault.BuildSpec(*faults, *faultRate, *faultSeed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	} else if spec != nil {
		fmt.Fprintf(os.Stderr, "fault plane armed: %s (seed %d)\n", spec, spec.Seed)
		sess.SetFaults(spec)
	}
	if wantObs {
		// One worker, so the published plane comes from the same
		// machine on every run.
		sess.SetParallelism(1)
		sess.SetObs(&svtsim.ObsOptions{RingCap: *obsRing})
	}

	switch {
	case *storm > 0:
		k := *vms
		if k <= 0 {
			k = 8
		}
		fmt.Printf("migration storm: %d VMs, %d events, seed %d, host %s\n", k, *storm, *stormSeed, topo)
		for _, r := range sess.StormTable(svtsim.AllModes(), k, *storm, *stormSeed) {
			fmt.Println(r.StatsLine())
		}
	case *lb > 0:
		fmt.Printf("load balancer: %d VMs, scenario %s, seed %d, slo %.0f us, host %s\n",
			*lb, *lbScen, *lbSeed, *lbSLO, topo)
		var rows []svtsim.LBResult
		if *lbScen == "all" {
			rows = sess.LoadBalancerSweep(svtsim.AllModes(), *lb, *lbSeed, *lbSLO)
		} else {
			rows = sess.LoadBalancerTable(svtsim.AllModes(), *lb, *lbScen, *lbSeed, *lbSLO)
		}
		for _, r := range rows {
			fmt.Println(r.StatsLine())
		}
	case *portCmp:
		if err := sess.Ports(os.Stdout, nil, *n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *density:
		sess.Density(os.Stdout, *vms, *slo)
	default:
		mode, err := svtsim.ParseMode(*modeStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		d := svtsim.Time(dur.Nanoseconds())

		switch *workload {
		case "cpuid":
			r := sess.CPUIDNested(mode, *n)
			fmt.Printf("nested cpuid (%s): %v per instruction\n", mode, r.PerOp)
			if *dumpExits > 0 {
				for _, e := range sess.TraceNestedCPUID(mode, *n, *dumpExits) {
					fmt.Println(" ", e.String())
				}
			}
		case "netrr":
			r := sess.NetLatency(mode, *n)
			fmt.Printf("netperf TCP_RR (%s): mean %.1f us, p99 %.1f us\n", mode, r.MeanUs, r.P99Us)
		case "stream":
			r := sess.NetBandwidth(mode, d)
			fmt.Printf("netperf TCP_STREAM (%s): %.0f Mbps\n", mode, r.Mbps)
		case "diskrd":
			r := sess.DiskLatency(mode, false, *n)
			fmt.Printf("ioping randread (%s): mean %.1f us\n", mode, r.MeanUs)
		case "diskwr":
			r := sess.DiskLatency(mode, true, *n)
			fmt.Printf("ioping randwrite (%s): mean %.1f us\n", mode, r.MeanUs)
		case "memcached":
			r := sess.Memcached(mode, *rate, d)
			fmt.Printf("memcached ETC @%.0f q/s (%s): avg %.0f us, p99 %.0f us, served %d\n",
				*rate, mode, r.AvgUs, r.P99Us, r.Served)
		case "tpcc":
			ktpm := sess.TPCC(mode, d)
			fmt.Printf("TPC-C (%s): %.2f ktpm\n", mode, ktpm)
		case "video":
			r := sess.VideoN(mode, *fps, *fps*60)
			fmt.Printf("video %d FPS (%s): %d dropped / %d played (60 s)\n", *fps, mode, r.Dropped, r.Played)
		default:
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(2)
		}
	}

	if wantObs {
		writeObs(sess, *trace, *metrics, *summary)
	}
}

// writeObs exports the session's last observability plane.
func writeObs(sess *svtsim.Session, tracePath, metricsPath string, summary int) {
	plane := sess.LastObs()
	if plane == nil {
		fmt.Fprintln(os.Stderr, "observability: no plane captured (workload did not run an instrumented machine)")
		os.Exit(1)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "observability:", err)
			os.Exit(1)
		}
		if err := plane.Tracer.WriteChromeTrace(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "observability:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s\n", plane.Tracer.Total(), tracePath)
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "observability:", err)
			os.Exit(1)
		}
		werr := error(nil)
		if strings.HasSuffix(metricsPath, ".json") {
			werr = plane.Metrics.WriteJSON(f)
		} else {
			werr = plane.Metrics.WriteCSV(f)
		}
		if werr == nil {
			werr = f.Close()
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "observability:", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: wrote %s\n", metricsPath)
	}
	if summary > 0 {
		if err := plane.Tracer.WriteSummary(os.Stdout, summary); err != nil {
			fmt.Fprintln(os.Stderr, "observability:", err)
			os.Exit(1)
		}
	}
}
