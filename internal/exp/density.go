package exp

import (
	"context"
	"fmt"
	"sync"

	"svtsim/internal/fault"
	"svtsim/internal/guest"
	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/netsim"
	"svtsim/internal/parallel"
	"svtsim/internal/sim"
	"svtsim/internal/snapshot"
	"svtsim/internal/stats"
	"svtsim/internal/swsvt"
	"svtsim/internal/workload"
)

// The density experiments are the fleet-level version of Figures 6–8:
// pack k nested VMs onto the session's host topology, let the L0
// scheduler place each VM's threads (a SW-SVt VM is a two-thread gang —
// its placement class emerges from which contexts were free), and
// measure per-VM latency and aggregate throughput under contention.
//
// The model runs in two phases. Phase 1 simulates each VM's workload
// uncontended on its own machine, with the scheduler-chosen placement
// class feeding the SW-SVt cost model; these runs are independent, so
// they fan out on the worker pool and are cached per (VM, placement).
// Phase 2 replays all VMs' execution demands on the shared host engine
// (host.Scheduler.Replay): quantum-based CPU sharing, SMT sibling
// interference, polling SVt-threads stealing sibling cycles, periodic
// migrations with cross-core reschedule IPIs. The per-VM slowdown from
// phase 2 dilates the phase-1 latency distribution — open-loop latency
// under proportional-share slowdown scales with service time — and
// deflates throughput. Both phases are RNG-free given the workload
// seeds, so a sweep is byte-identical at any pool width.

// DensityVM is one VM's outcome at one packing level.
type DensityVM struct {
	VM       int
	Workload string
	Ctxs     []host.CtxID
	Place    swsvt.Placement // meaningful for SW-SVt gangs only
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
	StolenCycles sim.Time
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
// contract svtsimd's content-addressed cache is built on).
func (pt DensityPoint) StatsLine() string {
	return fmt.Sprintf("mode=%s k=%d p50us=%.3f p99us=%.3f agg=%.3f util=%.4f stolen=%v "+
		"migrations=%d resched=%d ipis=%d/%d/%d events=%d",
		pt.Mode, pt.K, pt.WorstP50Us, pt.WorstP99Us, pt.AggThroughput,
		pt.CoreUtilMean, pt.StolenCycles, pt.Migrations, pt.ReschedIPIs,
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

// vmRun is one VM's phase-1 (uncontended) measurement, plus the warmed
// snapshot its cache entry forks for every VM it serves.
type vmRun struct {
	workload string
	latUs    []float64
	ops      float64
	busy     sim.Time
	total    sim.Time
	poll     bool
	frac     float64
	// base is the VM's post-run snapshot image in canonical form.
	// Cache hits hand out copy-on-write clones of it instead of
	// resimulating, and its size prices storm-driven migrations.
	base *snapshot.Snapshot
}

// vmKey identifies a cacheable phase-1 run. The cpuid and netrr
// workloads depend on the VM index only through the size class (i%4),
// so any two such VMs with equal class, size, and placement share one
// run — and one warmed snapshot; memcached VMs draw per-index RNG
// streams and stay keyed by index.
type vmKey struct {
	class string
	size  int
	vm    int // -1 for shareable classes
	place swsvt.Placement
}

func densityKey(i int, place swsvt.Placement) vmKey {
	k := vmKey{class: densityWorkloadName(i), size: i % 4, vm: -1, place: place}
	if k.class == "memcached" {
		k.vm = i
	}
	return k
}

// vmCache memoizes phase-1 runs across packing levels and VM indices:
// a sweep over k simulates each distinct (class, size, placement) cell
// once and forks COW clones of its warmed snapshot for every other VM,
// instead of resimulating O(k²) machines. Duplicate concurrent computes
// are harmless — both produce the identical value. The sims/reuses
// counters are exact only under a serial pool.
type vmCache struct {
	mu     sync.Mutex
	m      map[vmKey]vmRun
	sims   uint64
	reuses uint64
}

func (c *vmCache) get(s *Session, mode hv.Mode, i int, place swsvt.Placement) vmRun {
	key := densityKey(i, place)
	c.mu.Lock()
	r, ok := c.m[key]
	if ok {
		c.reuses++
	}
	c.mu.Unlock()
	if ok {
		return r
	}
	r = s.runDensityVM(mode, i, place)
	c.mu.Lock()
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

// runDensityVM simulates VM i's workload uncontended with the given
// SVt-thread placement class. Workload sizes vary deterministically
// with the VM index so the fleet is heterogeneous.
func (s *Session) runDensityVM(mode hv.Mode, i int, place swsvt.Placement) vmRun {
	cfg := s.config(mode)
	cfg.Placement = place
	cfg.Seed = int64(1000 + i)
	led := &sim.Ledger{}
	r := vmRun{workload: densityWorkloadName(i)}

	var runIO *machine.IOStack
	finish := func(m *machine.Machine) {
		s.run(m)
		// Capture the warmed image before teardown: cache hits fork COW
		// clones of it, and migrations price their transfers from it.
		r.base = snapshot.Capture(m, runIO)
		m.Shutdown()
		r.total = m.Now()
		r.busy = led.Total()
		if r.total > 0 {
			r.frac = float64(led.T[sim.CatTransform]+led.T[sim.CatL1]) / float64(r.total)
		}
		r.poll = mode == hv.ModeSWSVt && cfg.WaitPolicy == swsvt.PolicyPoll
	}

	switch i % 3 {
	case 0: // nested cpuid (Figure 6's microbenchmark)
		n := 300 + 25*(i%4)
		m := machine.NewNested(cfg)
		m.Eng.SetLedger(led)
		m.SetL2Workload(&cpuidLoop{n: n})
		finish(m)
		r.latUs = []float64{float64(r.total) / float64(n) / 1000}
		r.ops = float64(n)
	case 1: // netperf TCP_RR (Figure 7)
		n := 60 + 5*(i%4)
		io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
		runIO = io
		m := machine.NewNested(cfg)
		m.Eng.SetLedger(led)
		io.NIC.Peer = &netsim.EchoPeer{
			Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
			ServiceTime: 5 * sim.Microsecond, RespSize: 1,
		}
		w := &workload.NetRR{N: n, ReqSize: 1, TCPModel: true, SMP: true}
		m.InstallL2(io, true, false, func(env *guest.Env) { w.Run(env) })
		finish(m)
		r.latUs = append([]float64(nil), w.Lat...)
		r.ops = float64(n)
	default: // memcached ETC (Figure 8)
		rate := 20_000 + 2_500*float64(i%4)
		d := 5 * sim.Millisecond
		io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
		runIO = io
		m := machine.NewNested(cfg)
		m.Eng.SetLedger(led)
		srv := workload.DefaultMemcached(d + 100*sim.Millisecond)
		m.InstallL2(io, true, false, func(env *guest.Env) { srv.Run(env) })
		rng := sim.NewRand(int64(7 + i))
		etc := workload.NewETC(sim.SplitRand(rng))
		keyRng := sim.SplitRand(rng)
		client := &netsim.OpenLoopClient{
			Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
			Payload: func() []byte {
				return workload.EncodeMemcachedReq(uint64(keyRng.Intn(100000)), etc.IsGet(), etc.ValueSize())
			},
		}
		io.NIC.Peer = client
		client.Start(rate, m.Eng.Now()+d, rng.Float64)
		finish(m)
		r.latUs = append([]float64(nil), client.Lat...)
		r.ops = float64(srv.Served)
	}
	return r
}

// gangSize reports a mode's runnable-thread footprint: SW-SVt pairs a
// vCPU with its SVt-thread; baseline is one thread; HW-SVt's extra
// contexts are per-core front-end state, not extra fetch targets, so it
// is one thread too.
func gangSize(mode hv.Mode) int {
	if mode == hv.ModeSWSVt {
		return 2
	}
	return 1
}

// Consolidation packs k nested VMs onto the session's topology in one
// mode and measures them under contention (one DensitySweep point).
func (s *Session) Consolidation(mode hv.Mode, k int) DensityPoint {
	return s.consolidate(mode, k, &vmCache{m: make(map[vmKey]vmRun)})
}

func (s *Session) consolidate(mode hv.Mode, k int, cache *vmCache) DensityPoint {
	pt, _, _ := s.consolidateStorm(mode, k, cache, nil, nil)
	return pt
}

// consolidateStorm is consolidate with an optional migration storm
// overlaid on the phase-2 replay and an optional fault spec armed on
// the host engine (so migrate/* and apic/ipi sites fire during the
// storm); it additionally returns the raw replay result and the armed
// plane so storm callers can read the gang and fire tallies.
func (s *Session) consolidateStorm(mode hv.Mode, k int, cache *vmCache, plan *host.StormPlan, spec *fault.Spec) (DensityPoint, host.ReplayResult, *fault.Plane) {
	topo := s.Topology()
	h, err := host.New(topo, s.HostParams())
	if err != nil {
		panic("exp: " + err.Error())
	}
	plane := spec.Build(h.Eng)

	// Admission: the L0 scheduler places each VM's gang; SW-SVt
	// placement class falls out of the topology occupancy.
	nthreads := gangSize(mode)
	assigns := make([]host.Assignment, k)
	for i := 0; i < k; i++ {
		assigns[i] = h.Sched.Admit(i, nthreads)
	}

	// Phase 1: uncontended per-VM runs, fanned out on the pool. Cache
	// hits cost a COW fork of the warmed snapshot instead of a cold
	// simulation.
	runs := parallel.MapN(s.Parallelism(), k, func(i int) vmRun {
		return cache.get(s, mode, i, assigns[i].Place)
	})

	// Phase 2: contention replay on the shared host engine. Each VM's
	// live image is a COW clone of its cache entry's base snapshot — the
	// clone shares every word slab, so forking the fleet is O(k) section
	// tables — and its encoded size prices storm migrations.
	demands := make([]host.Demand, k)
	for i, r := range runs {
		var image *snapshot.Snapshot
		if r.base != nil {
			image = r.base.Clone()
		}
		demands[i] = host.Demand{
			VM:         i,
			Ctxs:       assigns[i].Ctxs,
			Busy:       r.busy,
			Total:      r.total,
			HelperPoll: r.poll,
			HelperFrac: r.frac,
			Pinned:     nthreads == 2,
		}
		if image != nil {
			demands[i].ImageBytes = image.Bytes()
		}
	}
	res := h.Sched.ReplayStorm(demands, plan)

	pt := DensityPoint{Mode: mode, K: k}
	for i, r := range runs {
		S := res.VMs[i].Slowdown
		v := DensityVM{
			VM:       i,
			Workload: r.workload,
			Ctxs:     assigns[i].Ctxs,
			Place:    assigns[i].Place,
			P50Us:    stats.Percentile(r.latUs, 50) * S,
			P99Us:    stats.Percentile(r.latUs, 99) * S,
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
	pt.StolenCycles = res.StolenTotal
	pt.Migrations = res.Migrations
	pt.ReschedIPIs = res.ReschedIPIs
	pt.Events = res.Events
	_, smt, cc, numa := h.IPIsSent()
	pt.IPIsSMT, pt.IPIsCore, pt.IPIsNUMA = smt, cc, numa
	return pt, res, plane
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
// in order, sharing the mode's phase-1 cache; each level fans its VMs
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
		cache := &vmCache{m: make(map[vmKey]vmRun)}
		for k := 1; k <= kmax; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pt := s.consolidate(mode, k, cache)
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
