package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// tiny runs a workload's first cells on the default seed, checked
// against the committed golden, and checks that the result line carries
// every metric BENCHMARK.json lists.
func tiny(t *testing.T, workload string, cells int, mutate func(*config)) *record {
	t.Helper()
	cfg := config{
		workload: workload, seed: defaultSeed, seconds: 20, cells: cells, cell: -1,
		golden:   filepath.Join("testdata", workload+".golden"),
		traceDir: t.TempDir(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sp := testSpec(t)
	rec, err := run(cfg, sp, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := printResult(io.Discard, sp, rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// tinyCells is each workload's size in the tests: enough cells for
// every set-up sample (fleet's come from its snapshot cells).
var tinyCells = map[string]int{"cpuid": 8, "io": 4, "fleet": 5, "svtsimd": 4}

// TestWorkloadsTiny runs every workload, all four at once: no cell
// fails, and each reports every end-to-end metric BENCHMARK.json lists.
func TestWorkloadsTiny(t *testing.T) {
	for w, cells := range tinyCells {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			rec := tiny(t, w, cells, nil)
			if rec.Failed != 0 || rec.Metrics["error_rate"] != 0 {
				t.Fatalf("%d of %d failed:\n%s", rec.Failed, rec.Attempted, strings.Join(rec.Failures, "\n"))
			}
			if rec.Cells != cells {
				t.Fatalf("ran %d cells, want %d", rec.Cells, cells)
			}
			for _, d := range testSpec(t).EndToEnd {
				if v := rec.Metrics[d.Name]; !(v > 0) {
					t.Errorf("%s = %v, want a positive measurement", d.Name, v)
				}
			}
		})
	}
}

func TestCorruptGoldenFails(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "cpuid.golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	lines[2] = strings.Replace(lines[2], "exits=", "exits=1", 1)
	bad := filepath.Join(t.TempDir(), "cpuid.golden")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := tiny(t, "cpuid", 4, func(c *config) { c.golden = bad })
	if rec.Failed != 1 || !(rec.Metrics["error_rate"] > 0) {
		t.Fatalf("corrupted golden line: failed=%d error_rate=%v, want exactly one failure", rec.Failed, rec.Metrics["error_rate"])
	}
	if !strings.Contains(rec.Failures[0], "cell=2") || !strings.Contains(rec.Failures[0], "-cell 2") {
		t.Fatalf("failure does not carry the replay line for cell 2: %s", rec.Failures[0])
	}
}

// TestTracedRun checks that a traced run of a machine workload measures
// its workload-specific layers too, and writes a Chrome trace.
func TestTracedRun(t *testing.T) {
	var dir string
	rec := tiny(t, "cpuid", 8, func(c *config) { c.trace = true; dir = c.traceDir })
	if rec.Failed != 0 {
		t.Fatalf("traced run failed:\n%s", strings.Join(rec.Failures, "\n"))
	}
	for _, name := range []string{"machine.run_s", "ept.compose_us", "hv.exits", "irq.armlike.deliver_ack_ns"} {
		if !(rec.Layers[name] > 0) {
			t.Errorf("%s = %v on cpuid, want > 0", name, rec.Layers[name])
		}
	}
	var prof float64
	for name, v := range rec.Layers {
		if strings.HasPrefix(name, "prof.") {
			prof += v
		}
	}
	if !(prof > 0 && prof <= 1+1e-9) {
		t.Errorf("profile shares sum to %v, want a share of the samples in (0, 1]", prof)
	}
	b, err := os.ReadFile(filepath.Join(dir, "cpuid-seed1-spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("spans file is not a Chrome trace with events: %v", err)
	}
}

// TestPlanPrefixStable pins what the goldens rely on: cell i of a plan
// depends only on the seed and i, not on the plan's length.
func TestPlanPrefixStable(t *testing.T) {
	for name, w := range workloads {
		short, long := w.plan(7, 1), w.plan(7, 3)
		for i := range short {
			if short[i].String() != long[i].String() {
				t.Fatalf("%s cell %d: %s in a 1-block plan, %s in a 3-block plan", name, i, short[i], long[i])
			}
		}
		if len(short) != w.block || len(long) != 3*w.block {
			t.Fatalf("%s: plan sizes %d and %d, want %d per block", name, len(short), len(long), w.block)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4) in Python 3.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3.5, 1.25, 9, 2.5, 7}, 1.875, 8},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestTailHasTenBeyond(t *testing.T) {
	xs := make([]float64, 816)
	for i := range xs {
		xs[i] = float64(i)
	}
	tl := tailOf(xs)
	beyond := 0
	for _, x := range xs {
		if x > tl.Value {
			beyond++
		}
	}
	if tl.Pct != 98.7 || beyond < 10 || tl.N != 816 {
		t.Fatalf("tail %+v with %d samples beyond, want p98.7 with at least 10", tl, beyond)
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: bench
Type: cpu
-----------+-------------------------------------------------------
      kind:  cpuid
  workload:  cpuid
      30ms   svtsim/internal/vmcs.(*VMCS).Write
             svtsim/internal/vmcs.ToPhysical
-----------+-------------------------------------------------------
      10ms   sort.insertionSort
             svtsim/internal/ept.(*Table).SaveState
-----------+-------------------------------------------------------
      20ms   runtime.nextFreeFast
             runtime.mallocgc
             svtsim/internal/hv.(*Hypervisor).RunLoop
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.notesleep
             runtime.findRunnable
-----------+-------------------------------------------------------
      kind:  layer-call
  workload:  cpuid
      50ms   svtsim/internal/ept.Compose
-----------+-------------------------------------------------------
      20ms   svtsim/internal/apic.(*LAPIC).Deliver
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcBgMarkWorker
`)
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"vmcs": 0.25, "ept": 1.0 / 12, "runtime.malloc": 2.0 / 12, "runtime.sched": 1.0 / 12, "ports": 2.0 / 12, "runtime.gc": 0.25}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}

func TestJudge(t *testing.T) {
	p50 := metricDef{"p50_s", "s", "lower", 0.10}
	allocs := metricDef{"alloc_bytes_per_cell", "B", "lower", 0.02}
	errRate := metricDef{"error_rate", "frac", "lower", 0}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	flat := func(v float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = v
		}
		return out
	}
	zeros := flat(0)
	withFailures := func(n int) []float64 {
		out := make([]float64, 10)
		for i := 0; i < n; i++ {
			out[i] = 0.01
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		d          metricDef
		a, b       []float64
		bFailsMore bool
		drift      float64
		want       string
	}{
		{"faster", p50, base, scale(0.8), false, 0, "better"},
		{"slower", p50, base, scale(1.2), false, 0, "worse"},
		{"same", p50, base, scale(1.0), false, 0, "unchanged"},
		{"noisy", p50, base, []float64{0.5, 1.5, 0.6, 1.4, 1, 1, 0.7, 1.3, 1, 1}, false, 0, "unresolved (spread above bound)"},
		{"faster but B fails more", p50, base, scale(0.8), true, 0, "unchanged"},
		{"host time on a drifted machine", p50, base, scale(1.2), false, 0.2, "unresolved (machine drift)"},
		{"allocations ignore drift", allocs, flat(1), flat(1.2), false, 0.2, "worse"},
		{"one failing B run", errRate, zeros, withFailures(1), true, 0, "worse"},
		{"three failing B runs", errRate, zeros, withFailures(3), true, 0, "worse"},
		{"no failures", errRate, zeros, zeros, false, 0, "unchanged"},
		{"fewer failures", errRate, withFailures(10), zeros, false, 0, "better"},
	} {
		var pairs [][2]float64
		for i := range tc.a {
			pairs = append(pairs, [2]float64{tc.a[i], tc.b[i]})
		}
		if got := judge(tc.d, tc.a, tc.b, pairs, tc.bFailsMore, tc.drift); got != tc.want {
			t.Errorf("%s: judge = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestSpec checks BENCHMARK.json against the workloads defined here and
// the metrics only the run record carries.
func TestSpec(t *testing.T) {
	sp := testSpec(t)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, bench has %v", names, workloadNames())
	}
	for _, d := range recordOnly {
		for _, e := range sp.EndToEnd {
			if e.Name == d.Name {
				t.Errorf("%s is both listed end-to-end and record-only", d.Name)
			}
		}
		for _, l := range sp.PerLayer {
			if l.Name == d.Name && (l.Unit != d.Unit || l.Better != d.Better) {
				t.Errorf("%s: per-layer %+v, record-only %+v", d.Name, l, d)
			}
		}
	}
}
