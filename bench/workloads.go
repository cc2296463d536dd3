package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"svtsim/internal/hv"
	"svtsim/internal/server"
)

// workloadDef is one seeded input set. Its plan is built in blocks: each
// block holds a fixed multiset of cell shapes (every kind at every size
// level) and the seed only shuffles their order and draws the values
// inside each level. Runs with different seeds therefore do near-equal
// work, which keeps the seed-to-seed spread of the metrics small, and
// cell i depends only on the seed and i, so any prefix of a plan can be
// checked against the golden.
type workloadDef struct {
	block int     // cells per block
	rate  float64 // nominal cells per second: -seconds x rate sizes the plan
	// reference runs the unmeasured cells first: one of each kind, which
	// warms the process and measures paper_err at the paper's sizes.
	reference func(r *runner)
	plan      func(seed int64, blocks int) []cell
	run       func(r *runner, plan []cell)
}

var workloads = map[string]*workloadDef{
	"cpuid":   {block: 24, rate: 40, reference: cpuidReference, plan: cpuidPlan, run: machineRun},
	"io":      {block: 24, rate: 34, reference: ioReference, plan: ioPlan, run: machineRun},
	"fleet":   {block: 35, rate: 8.5, reference: fleetReference, plan: fleetPlan, run: fleetRun},
	"svtsimd": {block: 28, rate: 20, reference: svtsimdReference, plan: svtsimdPlan, run: svtsimdRun},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// cell is one unit of measured work. Which fields matter depends on kind.
type cell struct {
	idx      int    // index in the plan
	kind     string // cpuid, netrr, randrd, randwr, fio, density, lb, storm, replay, snapshot, job
	port     string
	mode     hv.Mode
	n, k     int
	seed     int64
	scenario string
	storms   int
	shards   int

	// svtsimd jobs
	client int
	req    *server.Request
	digest string
	repeat int // plan index of the job this one repeats; -1 for a new request
}

func (c cell) String() string {
	switch c.kind {
	case "cpuid":
		return fmt.Sprintf("cpuid port=%s mode=%s n=%d", c.port, c.mode, c.n)
	case "netrr", "randrd", "randwr", "fio":
		return fmt.Sprintf("%s mode=%s n=%d seed=%d", c.kind, c.mode, c.n, c.seed)
	case "density":
		return fmt.Sprintf("density kmax=%d", c.k)
	case "lb":
		return fmt.Sprintf("lb k=%d scenario=%s seed=%d", c.k, c.scenario, c.seed)
	case "storm":
		return fmt.Sprintf("storm k=%d storms=%d seed=%d", c.k, c.storms, c.seed)
	case "replay":
		return fmt.Sprintf("replay shards=%d", c.shards)
	case "snapshot":
		return fmt.Sprintf("snapshot mode=%s n=%d", c.mode, c.n)
	case "job":
		if c.repeat >= 0 {
			return fmt.Sprintf("job client=%d repeat-of=%d digest=%.16s", c.client, c.repeat, c.digest)
		}
		return fmt.Sprintf("job client=%d kind=%s digest=%.16s", c.client, c.req.Kind, c.digest)
	}
	return c.kind
}

// blockRand is the generator for block b of a plan: independent of every
// other block, so a plan's prefix does not depend on its length.
func blockRand(seed int64, b int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(b)*7919 + 17))
}

// offsets draws one seeded start in [0, 1) for each slot of a block.
func offsets(seed int64, slots int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	u := make([]float64, slots)
	for i := range u {
		u[i] = rng.Float64()
	}
	return u
}

// spread is the size position of a slot in block b: frac(u + b·φ), φ the
// golden-ratio conjugate. Over any run of blocks these points cover
// [0, 1) almost evenly whatever the seeded start u, so the seed moves
// each cell's size but hardly a run's total work.
func spread(u float64, b int) float64 {
	return math.Mod(u+float64(b)*0.6180339887498949, 1)
}

// level maps a position f in [0, 1) into the lvl-th of levels equal
// slices of [lo, hi).
func level(f float64, lo, hi, lvl, levels int) int {
	w := float64(hi-lo) / float64(levels)
	return lo + int((float64(lvl)+f)*w)
}

// runner accumulates one pass over a plan.
type runner struct {
	cfg   config
	spans *spanSet // non-nil in the traced pass

	attempted, failed int
	failures          []string
	golden            map[int]string // plan index -> simulated-result line

	cellsDone  int
	walls      []float64 // cell wall seconds (svtsimd: cache misses)
	hitWalls   []float64 // svtsimd cache hits
	setups     []float64
	exitNs     []float64
	exits      uint64
	runMallocs uint64
	allocBytes uint64  // heap bytes the measured cells allocated
	busy       float64 // seconds the measured cells took
	liveHeap   uint64

	counts       map[string]float64
	layerSamples map[string][]float64
	calib        []float64
	paperErr     float64
	replayEvents uint64
	replayWall   float64
	replayDigest uint64
	cache        *server.Cache // holds this pass's cell requests for the cache layer call
}

func newRunner(cfg config, spans *spanSet) *runner {
	return &runner{
		cfg: cfg, spans: spans,
		golden:       map[int]string{},
		counts:       map[string]float64{},
		layerSamples: map[string][]float64{},
		cache:        server.NewCache(64 << 20),
	}
}

func (r *runner) fail(idx int, what string, err error) {
	r.failed++
	where := replayLine(r.cfg, idx)
	if idx < 0 {
		where = fmt.Sprintf("workload=%s reference cell", r.cfg.workload)
	}
	r.failures = append(r.failures, fmt.Sprintf("%s %s: %v", where, what, err))
}

// guard runs one cell and turns an error or a panic raised on this
// goroutine into a failed cell with its replay line.
func (r *runner) guard(c cell, fn func() error) {
	r.attempted++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return fn()
	}()
	if err != nil {
		r.fail(c.idx, c.String(), err)
	}
}

// labelled runs fn under pprof labels in the traced pass, so the CPU
// profile can tell workload cells from the repeated layer calls.
func (r *runner) labelled(kind string, fn func()) {
	if r.spans == nil {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("workload", r.cfg.workload, "kind", kind), func(context.Context) { fn() })
}

// serial runs a plan one cell at a time. Between cells, outside every
// timed span, it collects garbage, times the drift probe every eighth
// cell and, in the traced pass, repeats the standalone layer calls.
func (r *runner) serial(plan []cell, runCell func(t *track, c cell) error) {
	t := r.spans.newTrack()
	for n, c := range plan {
		if n%8 == 0 {
			r.calib = append(r.calib, calibKernel())
		}
		runtime.GC()
		r.labelled(c.kind, func() { r.guard(c, func() error { return runCell(t, c) }) })
		r.layerCalls(n, c)
	}
	runtime.GC()
	r.liveHeap = memSnap().HeapAlloc
}

// cellDone records one measured cell's wall time.
func (r *runner) cellDone(wall time.Duration) {
	r.cellsDone++
	r.walls = append(r.walls, wall.Seconds())
	r.busy += wall.Seconds()
}

// endToEnd computes the run's end-to-end metrics; ref is the runner of
// the reference cells, which carries paper_err.
func (r *runner) endToEnd(ref *runner) map[string]float64 {
	m := map[string]float64{
		"setup_s":    median(r.setups),
		"p50_s":      median(r.walls),
		"tail_s":     tailOf(r.walls).Value,
		"error_rate": 0,
	}
	if r.busy > 0 {
		m["cells_per_s"] = float64(r.cellsDone) / r.busy
	}
	if r.cellsDone > 0 {
		m["alloc_bytes_per_cell"] = float64(r.allocBytes) / float64(r.cellsDone)
	}
	if r.exits > 0 {
		m["exit_ns"] = median(r.exitNs)
		m["allocs_per_exit"] = float64(r.runMallocs) / float64(r.exits)
	}
	if ref != nil && ref.paperErr > 0 {
		m["paper_err"] = ref.paperErr
	}
	if r.replayWall > 0 {
		m["events_per_s"] = float64(r.replayEvents) / r.replayWall
	}
	if len(r.hitWalls) > 0 {
		m["hit_p50_s"] = median(r.hitWalls)
	}
	return m
}
