// Command bench is svtsim's end-to-end benchmark. It runs one of four
// seeded workloads against the simulator's layers, checks that the
// simulated outputs are correct, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 768, "failed": 0, "metrics": {...}}
//
// Run it from the repository root (run.sh builds it first):
//
//	bash bench/run.sh -workload cpuid -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload io -seed 1 -trace 1      # per-layer metrics
//	bash bench/run.sh -compare set-a.jsonl set-b.jsonl   # judge two sets of runs
//
// bench/README.md lists the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the goldens in testdata/ were recorded with.
const defaultSeed = 1

// metricDef is one metric: its unit, which direction is better, and for
// end-to-end metrics the share of the parent's median by which it may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// hostTime reports whether a metric is a host time or rate, which moves
// with the machine's speed, rather than an allocation count or an error.
func hostTime(d metricDef) bool {
	switch d.Unit {
	case "s", "ms", "us", "ns", "1/s":
		return true
	}
	return false
}

// spec is BENCHMARK.json, the one definition of the metrics the result
// line carries: every workload reports each of them, the end-to-end ones
// for -trace 0 and the per-layer ones for -trace 1.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// recordOnly are the other end-to-end metrics, which BENCHMARK.json does
// not list. p50_s, tail_s and cells_per_s do not repeat within their
// 10% bound on the reference machine, so BENCHMARK.json lists them as
// per-layer metrics (README.md, Findings). The rest apply to some
// workloads only, or read 0 on a healthy run. Every run record carries
// the ones that apply, and -compare judges them with these bounds;
// error_rate and paper_err are 0-bound: any increase regresses.
var recordOnly = []metricDef{
	{"p50_s", "s", "lower", 0.10},
	{"tail_s", "s", "lower", 0.10},
	{"cells_per_s", "1/s", "higher", 0.10},
	{"exit_ns", "ns", "lower", 0.10},
	{"allocs_per_exit", "count", "lower", 0.02},
	{"paper_err", "frac", "lower", 0},
	{"events_per_s", "1/s", "higher", 0.10},
	{"hit_p50_s", "s", "lower", 0.10},
	{"error_rate", "frac", "lower", 0},
}

// endToEnd is every metric -compare judges.
func (sp *spec) endToEnd() []metricDef {
	return append(append([]metricDef(nil), sp.EndToEnd...), recordOnly...)
}

// unitOf names a metric's unit. Metrics BENCHMARK.json does not list are
// named by their unit: span self times end in _s, layer-call times in _ns
// or _us, and the rest are counts.
func (sp *spec) unitOf(name string) string {
	for _, d := range append(sp.endToEnd(), sp.PerLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, u := range []string{"ns", "us", "s"} {
		if strings.HasSuffix(name, "_"+u) {
			return u
		}
	}
	return "count"
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
	golden   string // golden file for the default seed
	update   bool   // rewrite the golden instead of checking it
	cells    int    // > 0: run only the first cells of the plan
	cell     int    // >= 0: replay only this cell of the plan
}

// record is one run's outcome, written as one JSON line by -out and read
// back by -compare.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Traced     bool               `json:"traced"`
	Cells      int                `json:"cells"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	CalibNs    float64            `json:"calib.ref_ns"`
	LiveHeapMB float64            `json:"live_heap_mb"`
	Goroutines int                `json:"goroutines_left"`
	Tail       tail               `json:"tail"`
	Metrics    map[string]float64 `json:"metrics"`
	Counts     map[string]float64 `json:"counts"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; the same seed gives the same cells")
	flag.IntVar(&cfg.seconds, "seconds", 20, "run size: the plan holds seconds x the workload's nominal cell rate")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.traceDir, "trace-dir", filepath.Join("bench", "out"), "directory a traced run writes spans.json and cpu.pprof to")
	flag.BoolVar(&cfg.update, "update-golden", false, "rewrite the golden from this run (default seed, full plan)")
	flag.IntVar(&cfg.cell, "cell", -1, "replay one cell of the plan by index")
	out := flag.String("out", "", "append the run record as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two run-record files: -compare a.jsonl b.jsonl")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProf := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark description listing the reported metrics")
	flag.Parse()

	sp, err := loadSpec(*specPath)
	if err != nil {
		fatalf("%v", err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.jsonl b.jsonl")
		}
		if err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments: %q", flag.Args())
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fatalf("unknown -workload %q (want %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	cfg.trace = *trace == 1
	cfg.golden = filepath.Join("bench", "testdata", cfg.workload+".golden")
	if cfg.update && (cfg.seed != defaultSeed || cfg.trace || cfg.cell >= 0) {
		fatalf("-update-golden needs the default seed, -trace 0 and the full plan")
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}()
	}
	rec, err := run(cfg, sp, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			fatalf("memprofile: %v", err)
		}
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatalf("-out: %v", err)
		}
	}
	if err := printResult(os.Stdout, sp, rec); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a file of run records, one JSON object per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// printResult writes the last line of standard output, the result: the
// end-to-end metrics BENCHMARK.json lists for an untraced run, its
// per-layer metrics for a traced one.
func printResult(w io.Writer, sp *spec, rec *record) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs, vals := sp.EndToEnd, rec.Metrics
	if rec.Traced {
		defs, vals = sp.PerLayer, rec.Layers
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// run executes one invocation: the reference cells, then the measured
// plan. An untraced run measures the end-to-end metrics over the whole
// plan. A traced run measures the first half of the plan twice, once
// untraced and once with spans, the layer calls and a CPU profile, so
// the difference between the two passes is the tracing overhead.
func run(cfg config, sp *spec, w io.Writer) (*record, error) {
	wl := workloads[cfg.workload]
	blocks := int(math.Ceil(float64(cfg.seconds) * wl.rate / float64(wl.block)))
	if cfg.trace {
		blocks = (blocks + 1) / 2
	}
	if cfg.cell >= 0 {
		blocks = cfg.cell/wl.block + 1
	}
	plan := wl.plan(cfg.seed, blocks)
	for i := range plan {
		plan[i].idx = i
	}
	switch {
	case cfg.cell >= 0:
		c := plan[cfg.cell]
		if c.kind == "job" && c.repeat >= 0 {
			plan = []cell{plan[c.repeat], c} // a repeat needs its cold run first
		} else {
			plan = []cell{c}
		}
	case cfg.cells > 0 && cfg.cells < len(plan):
		plan = plan[:cfg.cells]
	}

	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Cells: len(plan), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(),
	}
	fmt.Fprintf(w, "bench %s seed=%d cells=%d traced=%v %s GOMAXPROCS=%d nproc=%d\n",
		cfg.workload, cfg.seed, len(plan), cfg.trace, rec.GoVersion, rec.GOMAXPROCS, rec.NumCPU)

	goroutines := runtime.NumGoroutine()
	ref := newRunner(cfg, nil)
	wl.reference(ref)
	r := newRunner(cfg, nil)
	wl.run(r, plan)
	rec.Goroutines = runtime.NumGoroutine() - goroutines
	rec.LiveHeapMB = float64(r.liveHeap) / (1 << 20)
	rec.Metrics = r.endToEnd(ref)
	rec.Counts = r.counts
	rec.Tail = tailOf(r.walls)
	rec.CalibNs = median(r.calib)
	passes := []*runner{ref, r}

	if cfg.trace {
		tr, layers, err := tracedPass(cfg, wl, plan)
		if err != nil {
			return nil, err
		}
		traced := tr.endToEnd(nil)
		layers["trace.overhead_p50"] = traced["p50_s"]/rec.Metrics["p50_s"] - 1
		layers["trace.overhead_cells_per_s"] = traced["cells_per_s"]/rec.Metrics["cells_per_s"] - 1
		for _, name := range []string{"p50_s", "tail_s", "cells_per_s"} {
			layers[name] = rec.Metrics[name]
		}
		layers["runtime.live_heap_mb"] = rec.LiveHeapMB
		layers["runtime.goroutines_left"] = float64(rec.Goroutines)
		rec.Layers = layers
		passes = append(passes, tr)
	}
	for _, p := range passes {
		if p != ref {
			fails, err := checkGolden(cfg, p, len(plan))
			if err != nil {
				return nil, err
			}
			for _, f := range fails {
				p.failed++
				p.failures = append(p.failures, f)
			}
		}
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		rec.Failures = append(rec.Failures, p.failures...)
	}
	if rec.Attempted > 0 {
		rec.Metrics["error_rate"] = float64(rec.Failed) / float64(rec.Attempted)
	}
	printSummary(w, sp, rec)
	return rec, nil
}

// tracedPass runs the plan with spans, the repeated layer calls and a
// CPU profile, writes the spans and the profile to the trace directory,
// and returns the pass with its per-layer metrics.
func tracedPass(cfg config, wl *workloadDef, plan []cell) (*runner, map[string]float64, error) {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	profPath := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d-cpu.pprof", cfg.workload, cfg.seed))
	f, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("traced run: %w (drop -cpuprofile)", err)
	}
	ss := newSpanSet()
	r := newRunner(cfg, ss)
	before := memSnap()
	wl.run(r, plan)
	after := memSnap()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	if err := ss.writeChrome(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed))); err != nil {
		return nil, nil, err
	}

	layers := map[string]float64{}
	for name, v := range ss.selfMedians() {
		if !strings.HasPrefix(name, "cell.") {
			layers[name+"_s"] = v
		}
	}
	for name, xs := range r.layerSamples {
		layers[name] = median(xs)
	}
	for name, v := range r.counts {
		layers[name] = v
	}
	layers["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layers["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	layers["calib.ref_ns"] = median(r.calib)
	prof, err := profFractions(profPath)
	if err != nil {
		return nil, nil, err
	}
	for name, v := range prof {
		layers[name] = v
	}
	return r, layers, nil
}

// printSummary writes the human-readable report above the JSON line.
func printSummary(w io.Writer, sp *spec, rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", n, rec.Metrics[n], sp.unitOf(n))
	}
	fmt.Fprintf(w, "  tail_s is p%.1f over %d samples; calib.ref_ns %.0f; live heap %.1f MB; %d goroutines left\n",
		rec.Tail.Pct, rec.Tail.N, rec.CalibNs, rec.LiveHeapMB, rec.Goroutines)
	if rec.Traced {
		names = names[:0]
		for n := range rec.Layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  layer %-34s %14.6g %s\n", n, rec.Layers[n], sp.unitOf(n))
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	fmt.Fprintf(w, "  attempted %d failed %d\n", rec.Attempted, rec.Failed)
}

// checkGolden compares the simulated-result lines of a default-seed run
// with the golden file, or rewrites the file under -update-golden, and
// returns one failure per mismatching cell. Cell i of a plan depends
// only on the seed and i, so any part of the default plan is checkable.
func checkGolden(cfg config, r *runner, cells int) ([]string, error) {
	if cfg.seed != defaultSeed {
		return nil, nil
	}
	if cfg.update {
		var b strings.Builder
		for i := 0; i < cells; i++ {
			fmt.Fprintln(&b, r.golden[i])
		}
		return nil, os.WriteFile(cfg.golden, []byte(b.String()), 0o644)
	}
	data, err := os.ReadFile(cfg.golden)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("no golden file %s", cfg.golden)
	}
	if err != nil {
		return nil, err
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	var fails []string
	for idx, got := range r.golden {
		if idx < len(want) && got != want[idx] {
			fails = append(fails, fmt.Sprintf("%s: golden mismatch\n    got  %s\n    want %s",
				replayLine(cfg, idx), got, want[idx]))
		}
	}
	sort.Strings(fails)
	return fails, nil
}

// replayLine names a cell so that it can be rerun alone.
func replayLine(cfg config, idx int) string {
	return fmt.Sprintf("workload=%s seed=%d cell=%d (replay: bash bench/run.sh -workload %s -seed %d -cell %d)",
		cfg.workload, cfg.seed, idx, cfg.workload, cfg.seed, idx)
}

// since reports the wall-clock seconds since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
