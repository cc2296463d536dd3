package exp

import (
	"context"
	"fmt"
	"sync"

	"svtsim/internal/fault"
	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/obs"
	"svtsim/internal/parallel"
	"svtsim/internal/sim"
	"svtsim/internal/snapshot"
	"svtsim/internal/stats"
	"svtsim/internal/swsvt"
)

// The density experiments are the fleet-level version of Figures 6–8:
// pack k nested VMs onto the session's host topology, let the L0
// scheduler place each VM's threads (a SW-SVt VM is a two-thread gang —
// its placement class emerges from which contexts were free), and
// measure per-VM latency and aggregate throughput under contention.
//
// The model runs in two phases, through the fleet pipeline (packFleet)
// that storms and the load balancer share. Phase 1 simulates each VM's
// workload uncontended on its own machine, with the scheduler-chosen
// placement class feeding the SW-SVt cost model; these runs are
// independent, so they fan out on the worker pool and are memoized per
// (mode, workload class, size, placement) in a phase-1 memo: the
// session's own until SetPort, SetFaults or SetObs drops it, or one that
// svtsimd shares across requests (SetMemo). Phase 2 replays all VMs'
// execution demands on the shared host engine (host.Scheduler.ReplayStorm):
// quantum-based CPU sharing, SMT sibling interference from the
// mwaiting SVt-threads, periodic migrations with cross-core reschedule
// IPIs. The per-VM slowdown from phase 2 dilates the phase-1 latency
// distribution — open-loop latency under proportional-share slowdown
// scales with service time — and deflates throughput. Both phases are RNG-free given the workload seeds, so a
// sweep is byte-identical at any pool width.

// DensityVM is one VM's outcome at one packing level.
type DensityVM struct {
	VM       int
	Workload string
	Ctxs     []host.CtxID
	P50Us    float64
	P99Us    float64
	// Throughput is the VM's operation rate under contention, in
	// operations per simulated second.
	Throughput float64
	Slowdown   float64
}

// DensityPoint is one packing level: k VMs on the host in one mode.
type DensityPoint struct {
	Mode hv.Mode
	K    int
	VMs  []DensityVM

	// WorstP50Us/WorstP99Us are the highest per-VM percentiles — the
	// straggler VM the SLO judges.
	WorstP50Us float64
	WorstP99Us float64
	// AggThroughput sums per-VM operation rates (ops/s).
	AggThroughput float64

	CoreUtilMean float64
	Migrations   uint64
	ReschedIPIs  uint64
	IPIsSMT      uint64
	IPIsCore     uint64
	IPIsNUMA     uint64
	// Events is the phase-2 replay's engine dispatch count — a pure
	// simulation quantity, byte-identical at any pool width.
	Events uint64
}

// StatsLine renders the point as one deterministic line; two runs with
// the same session configuration must produce byte-identical lines (the
// contract svtsimd's content-addressed cache is built on). The SVt-thread
// mwaits, so it steals no sibling cycles; the line keeps stolen=0ns
// because svtsimd's cached result bodies and the bench fleet digests
// carry it.
func (pt DensityPoint) StatsLine() string {
	return fmt.Sprintf("mode=%s k=%d p50us=%.3f p99us=%.3f agg=%.3f util=%.4f stolen=0ns "+
		"migrations=%d resched=%d ipis=%d/%d/%d events=%d",
		pt.Mode, pt.K, pt.WorstP50Us, pt.WorstP99Us, pt.AggThroughput,
		pt.CoreUtilMean, pt.Migrations, pt.ReschedIPIs,
		pt.IPIsSMT, pt.IPIsCore, pt.IPIsNUMA, pt.Events)
}

// DensityResult is one mode's full packing sweep.
type DensityResult struct {
	Mode   hv.Mode
	Topo   host.Topology
	SLOUs  float64
	Points []DensityPoint
	// MaxDensity is the largest k whose worst per-VM p99 meets the SLO
	// (0 if even one VM misses it).
	MaxDensity int
}

// SummaryLine renders the sweep verdict as one deterministic line.
func (r DensityResult) SummaryLine() string {
	return fmt.Sprintf("maxdensity mode=%s topo=%s slo=%.0fus k=%d",
		r.Mode, r.Topo, r.SLOUs, r.MaxDensity)
}

// vmRun is one VM's phase-1 (uncontended) measurement; an lb backend's
// latUs are its per-request service samples. It is immutable once
// computed: the memo hands it to every VM, call and session it serves.
type vmRun struct {
	latUs []float64
	// p50 and p99 are latUs's percentiles, read once when the run is
	// measured; a density point scales them by the VM's slowdown.
	p50, p99 float64
	ops      float64
	busy     sim.Time
	total    sim.Time
	frac     float64
	// imageBytes is the encoded size of the VM's post-run migration
	// image (snapshot.Size); it prices storm-driven migrations. lb
	// backends are not sized and migrate as empty images.
	imageBytes int
}

// vmKey identifies a memoizable phase-1 run. The cpuid, netrr and lb
// workloads depend on the VM index only through the size class (i%4),
// so VMs with equal mode, class, size, and placement share one run;
// memcached VMs draw per-index RNG streams and stay keyed by index.
type vmKey struct {
	mode  hv.Mode
	class string
	size  int
	vm    int // -1 for shareable classes
	place swsvt.Placement
}

func densityKey(mode hv.Mode, i int, place swsvt.Placement) vmKey {
	k := vmKey{mode: mode, class: densityWorkloadName(i), size: i % 4, vm: -1, place: place}
	if k.class == "memcached" {
		k.vm = i
	}
	return k
}

// Memo is a phase-1 memo: each distinct VM run is simulated once and
// reused by every VM and call it serves, instead of O(k²) machines per
// sweep. A session builds its own on first use; Session.SetMemo shares
// one across sessions. Its keys hold the mode, workload class, size and
// placement, and memcached VMs add their index, so the key space plus
// one memcached entry per VM index up to the largest k served bounds it
// (a few hundred floats per entry). The port, fault spec and obs plane
// are not in the key: a memo serves one configuration. Duplicate
// concurrent computes are harmless — both produce the identical value.
// The sims/reuses counters are exact only under a serial pool. The
// zero Memo is empty and ready.
type Memo struct {
	mu     sync.Mutex
	m      map[vmKey]vmRun
	sims   uint64
	reuses uint64
}

// get returns key's run, computing it with run on a miss.
func (c *Memo) get(key vmKey, run func() vmRun) vmRun {
	c.mu.Lock()
	r, ok := c.m[key]
	if ok {
		c.reuses++
	}
	c.mu.Unlock()
	if ok {
		return r
	}
	r = run()
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[vmKey]vmRun)
	}
	c.m[key] = r
	c.sims++
	c.mu.Unlock()
	return r
}

// densityWorkloadName reports which workload VM i runs (round-robin:
// cpuid, netrr, memcached).
func densityWorkloadName(i int) string {
	switch i % 3 {
	case 0:
		return "cpuid"
	case 1:
		return "netrr"
	default:
		return "memcached"
	}
}

// vmBuilder builds VM i's phase-1 machine (and its I/O stack, nil for
// cpuid VMs) from cfg with the workload installed and led attached,
// ready to run. measure reads the workload's latencies (us) and
// operation count once the machine has run for total.
type vmBuilder func(cfg machine.Config, i int, led *sim.Ledger) (m *machine.Machine, io *machine.IOStack, measure func(total sim.Time) ([]float64, float64))

// runVM simulates VM i uncontended on cfg with placement class place
// and reads its demand off the ledger. A sized VM also measures its
// migration image after the run; storms price transfers from it.
func (s *Session) runVM(cfg machine.Config, i int, place swsvt.Placement, build vmBuilder, sized bool) vmRun {
	cfg.Placement = place
	led := &sim.Ledger{}
	m, io, measure := build(cfg, i, led)
	s.run(m)
	var r vmRun
	if sized {
		r.imageBytes = snapshot.Size(m, io)
	}
	r.total = m.Now()
	r.busy = led.Total()
	if r.total > 0 {
		r.frac = float64(led.T[sim.CatTransform]+led.T[sim.CatL1]) / float64(r.total)
	}
	r.latUs, r.ops = measure(r.total)
	q := stats.Percentiles(r.latUs, 50, 99)
	r.p50, r.p99 = q[0], q[1]
	return r
}

// buildDensityVM is the density fleet's vmBuilder. Workload sizes vary
// deterministically with the VM index so the fleet is heterogeneous.
func buildDensityVM(cfg machine.Config, i int, led *sim.Ledger) (*machine.Machine, *machine.IOStack, func(total sim.Time) ([]float64, float64)) {
	cfg.Seed = int64(1000 + i)
	switch i % 3 {
	case 0: // nested cpuid (Figure 6's microbenchmark)
		n := 300 + 25*(i%4)
		m := machine.NewNested(cfg)
		m.Eng.SetLedger(led)
		m.SetL2Workload(&cpuidLoop{n: n})
		return m, nil, func(total sim.Time) ([]float64, float64) {
			return []float64{float64(total) / float64(n) / 1000}, float64(n)
		}
	case 1: // netperf TCP_RR (Figure 7)
		n := 60 + 5*(i%4)
		m, io, w := netRRMachine(cfg, led, n)
		return m, io, func(sim.Time) ([]float64, float64) {
			return append([]float64(nil), w.Lat...), float64(n)
		}
	default: // memcached ETC (Figure 8)
		m, io, srv, client := memcachedMachine(cfg, led, 20_000+2_500*float64(i%4), 5*sim.Millisecond, int64(7+i))
		return m, io, func(sim.Time) ([]float64, float64) {
			return append([]float64(nil), client.Lat...), float64(srv.Served)
		}
	}
}

// fleet is one packed host after its contention replay: the admitted
// gangs, each VM's phase-1 run and the replay's outcome.
type fleet struct {
	h       *host.Host
	assigns []host.Assignment
	runs    []vmRun
	res     host.ReplayResult
}

// packFleet is the pipeline density, storms and the load balancer
// share. It builds the session's host and arms spec's fault plane on
// its engine, plus oplane when non-nil — before admission, so the
// reschedule IPIs Admit sends are traced. The L0 scheduler then places
// k gangs of mode's footprint (SW-SVt placement class falls out of the
// topology occupancy), phase 1 serves each VM's key from the session
// memo, running build uncontended on a miss (fanned out on the pool),
// and phase 2 replays their demands with plan's storm (nil for none).
func (s *Session) packFleet(mode hv.Mode, k int, plan *host.StormPlan, spec *fault.Spec, oplane *obs.Plane, key func(hv.Mode, int, swsvt.Placement) vmKey, build vmBuilder, sized bool) fleet {
	cfg, memo := s.phase1(mode)
	h, err := host.New(s.Topology(), cfg.Port)
	if err != nil {
		panic("exp: " + err.Error())
	}
	faults := spec.Build(h.Eng)
	f := fleet{h: h, assigns: make([]host.Assignment, k)}
	if oplane != nil {
		h.SetObs(oplane)
		if faults != nil {
			faults.SetObs(oplane.Tracer, 0)
		}
	}
	for i := range f.assigns {
		f.assigns[i] = h.Sched.Admit(i, mode.Threads())
	}
	f.runs = parallel.MapN(s.Parallelism(), k, func(i int) vmRun {
		place := f.assigns[i].Place
		return memo.get(key(mode, i, place), func() vmRun { return s.runVM(cfg, i, place, build, sized) })
	})
	demands := make([]host.Demand, k)
	for i, r := range f.runs {
		demands[i] = host.Demand{
			Ctxs:       f.assigns[i].Ctxs,
			Busy:       r.busy,
			Total:      r.total,
			HelperFrac: r.frac,
			ImageBytes: r.imageBytes,
		}
	}
	f.res = h.Sched.ReplayStorm(demands, plan)
	return f
}

// Consolidation packs k nested VMs onto the session's topology in one
// mode and measures them under contention (one DensitySweep point).
func (s *Session) Consolidation(mode hv.Mode, k int) DensityPoint {
	return s.densityFleet(mode, k, nil, nil).point(mode)
}

// densityFleet packs k density VMs with an optional migration storm and
// fault spec (armed on the host engine, so migrate/* and apic/ipi sites
// fire during the storm).
func (s *Session) densityFleet(mode hv.Mode, k int, plan *host.StormPlan, spec *fault.Spec) fleet {
	return s.packFleet(mode, k, plan, spec, nil, densityKey, buildDensityVM, true)
}

// point reads a density fleet's DensityPoint: each VM's phase-1
// latencies dilated by its replay slowdown, throughput deflated by it.
func (f fleet) point(mode hv.Mode) DensityPoint {
	res := f.res
	pt := DensityPoint{Mode: mode, K: len(f.runs)}
	for i, r := range f.runs {
		S := res.VMs[i].Slowdown
		v := DensityVM{
			VM:       i,
			Workload: densityWorkloadName(i),
			Ctxs:     f.assigns[i].Ctxs,
			P50Us:    r.p50 * S,
			P99Us:    r.p99 * S,
			Slowdown: S,
		}
		if r.total > 0 {
			v.Throughput = r.ops / (float64(r.total) * S / float64(sim.Second))
		}
		pt.VMs = append(pt.VMs, v)
		if v.P50Us > pt.WorstP50Us {
			pt.WorstP50Us = v.P50Us
		}
		if v.P99Us > pt.WorstP99Us {
			pt.WorstP99Us = v.P99Us
		}
		pt.AggThroughput += v.Throughput
	}
	pt.CoreUtilMean = stats.Mean(res.CoreUtil)
	pt.Migrations = res.Migrations
	pt.ReschedIPIs = res.ReschedIPIs
	pt.Events = res.Events
	_, smt, cc, numa := f.h.IPIsSent()
	pt.IPIsSMT, pt.IPIsCore, pt.IPIsNUMA = smt, cc, numa
	return pt
}

// DensitySweep packs k = 1..kmax nested VMs per mode and reports every
// packing level plus the max density meeting the p99 SLO (in
// microseconds, judged against the worst per-VM p99). kmax <= 0 uses
// the topology's context count.
func (s *Session) DensitySweep(modes []hv.Mode, kmax int, sloUs float64) []DensityResult {
	out, _ := s.DensitySweepContext(context.Background(), modes, kmax, sloUs, nil)
	return out
}

// DensitySweepContext is DensitySweep with cancellation checked and
// progress reported between packing levels. The levels of one mode run
// in order, sharing the session's phase-1 memo; each level fans its VMs
// out on the session's pool.
func (s *Session) DensitySweepContext(ctx context.Context, modes []hv.Mode, kmax int, sloUs float64, pr ProgressFunc) ([]DensityResult, error) {
	topo := s.Topology()
	if kmax <= 0 {
		kmax = topo.Contexts()
	}
	total := len(modes) * kmax
	done := 0
	out := make([]DensityResult, len(modes))
	for mi, mode := range modes {
		res := DensityResult{Mode: mode, Topo: topo, SLOUs: sloUs}
		for k := 1; k <= kmax; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pt := s.densityFleet(mode, k, nil, nil).point(mode)
			res.Points = append(res.Points, pt)
			if pt.WorstP99Us <= sloUs {
				res.MaxDensity = k
			}
			done++
			if pr != nil {
				pr.emit("density", done, total, fmt.Sprintf("mode=%s k=%d", mode, k))
			}
		}
		out[mi] = res
	}
	return out, nil
}
