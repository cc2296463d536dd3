package main

import (
	"fmt"
	"math"
	"time"

	"svtsim/internal/cpu"
	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/machine"
	"svtsim/internal/netsim"
	"svtsim/internal/ports"
	_ "svtsim/internal/ports/armlike" // registers the armlike port
	_ "svtsim/internal/ports/x86"     // registers the x86 port
	"svtsim/internal/sim"
	"svtsim/internal/workload"
)

// The cpuid and io workloads build one nested machine per cell, empty
// and cold as a user's cell starts, and time its three phases from the
// outside: machine.NewNested (with WireNestedIO for io) is the set-up,
// then Run, then Shutdown.

var (
	cpuidPorts = []string{"x86", "armlike"}
	ioKinds    = []string{"netrr", "randrd", "randwr", "fio"}
	ioModes    = []hv.Mode{hv.ModeBaseline, hv.ModeSWSVt, hv.ModeHWSVt}
)

// cpuidPlan: each block is every (port, mode) pair at three size levels
// of n in [500, 4000] nested CPUIDs.
func cpuidPlan(seed int64, blocks int) []cell {
	var plan []cell
	u := offsets(seed, 24)
	for b := 0; b < blocks; b++ {
		rng := blockRand(seed, b)
		var cs []cell
		for _, port := range cpuidPorts {
			for _, mode := range hv.AllModes() {
				for lvl := 0; lvl < 3; lvl++ {
					n := level(spread(u[len(cs)], b), 500, 4000, lvl, 3)
					cs = append(cs, cell{kind: "cpuid", port: port, mode: mode, n: n})
				}
			}
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		plan = append(plan, cs...)
	}
	return plan
}

// ioPlan: each block is every (kind, mode) pair at two size levels of n
// in [100, 400] ops, each with its own disk RNG seed.
func ioPlan(seed int64, blocks int) []cell {
	var plan []cell
	u := offsets(seed, 24)
	for b := 0; b < blocks; b++ {
		rng := blockRand(seed, b)
		var cs []cell
		for _, kind := range ioKinds {
			for _, mode := range ioModes {
				for lvl := 0; lvl < 2; lvl++ {
					n := level(spread(u[len(cs)], b), 100, 400, lvl, 2)
					cs = append(cs, cell{kind: kind, mode: mode, n: n, seed: 1 + rng.Int63n(1<<30)})
				}
			}
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		plan = append(plan, cs...)
	}
	return plan
}

// cpuidLoop is the paper's §6.1 micro-benchmark program: n CPUIDs.
type cpuidLoop struct{ n, i int }

func (g *cpuidLoop) Step() cpu.Action {
	if g.i >= g.n {
		return cpu.Action{Kind: cpu.ActDone}
	}
	g.i++
	return cpu.Action{Kind: cpu.ActInstr, Instr: isa.CPUID(1)}
}

func (g *cpuidLoop) DeliverIRQ(int) {}

func machineConfig(port string, mode hv.Mode) machine.Config {
	p := ports.Get(port)
	cfg := machine.DefaultConfig(mode)
	cfg.Port, cfg.Costs = p, p.Costs()
	return cfg
}

// vm describes one machine cell: build is the timed set-up, install puts
// the guest workload (and its peer) in place, result checks that the
// workload completed and summarizes its simulated outcome.
type vm struct {
	build   func() (*machine.Machine, *machine.IOStack)
	install func(m *machine.Machine, io *machine.IOStack)
	result  func(m *machine.Machine) (string, error)
	// after, when set, runs on the finished machine before Shutdown
	// (the snapshot cell captures and restores there); its time counts
	// in the cell but in no machine phase.
	after func(m *machine.Machine, io *machine.IOStack) error
}

// vmRun is what one machine cell measured.
type vmRun struct {
	setup, wall time.Duration
	allocBytes  uint64 // allocated by the build, Run and Shutdown phases
	exits       uint64
	virt        sim.Time
	summary     string
}

// runVM builds, runs and shuts down one machine, timing each phase and
// reading the allocation counters between phases (never inside them).
// The machine is checked before Shutdown: the workload must have
// completed and machine.CheckInvariants must report nothing.
func (r *runner) runVM(t *track, idx int, v vm) (out vmRun, err error) {
	var (
		m  *machine.Machine
		io *machine.IOStack
	)
	defer func() {
		if p := recover(); p != nil && m != nil {
			m.Shutdown()
			panic(p)
		}
	}()
	before := memSnap()
	out.setup = t.timed("machine.new", idx, func() { m, io = v.build() })
	start := time.Now()
	v.install(m, io)
	prep := time.Since(start)
	a := memSnap()
	runD := t.timed("machine.run", idx, func() { m.Run() })
	b := memSnap()

	out.summary, err = v.result(m)
	if err == nil {
		if errs := m.CheckInvariants(); len(errs) > 0 {
			err = fmt.Errorf("invariants: %v", errs)
		}
	}
	for _, n := range m.L0.NestedProf.Count {
		out.exits += n
	}
	out.virt = m.Now()
	out.summary += fmt.Sprintf(" exits=%d events=%d virt=%d state=%016x",
		out.exits, m.Eng.Dispatched(), out.virt, m.StateDigest())
	r.machineCounts(m)
	var afterD time.Duration
	if err == nil && v.after != nil {
		start := time.Now()
		err = v.after(m, io)
		afterD = time.Since(start)
	}
	if r.spans != nil && err == nil {
		r.labelled("layer-call", func() { err = r.machineLayers(m) })
	}
	c := memSnap()
	shut := t.timed("machine.shutdown", idx, m.Shutdown)
	m = nil
	after := memSnap()

	out.wall = out.setup + prep + runD + afterD + shut
	out.allocBytes = allocated(before, b) + allocated(c, after)
	if out.exits > 0 {
		r.exits += out.exits
		r.runMallocs += b.Mallocs - a.Mallocs
		r.exitNs = append(r.exitNs, float64(runD.Nanoseconds())/float64(out.exits))
	}
	return out, err
}

// machineCounts adds a finished machine's exact counters to the run's.
func (r *runner) machineCounts(m *machine.Machine) {
	c := r.counts
	for reason, n := range m.L0.NestedProf.Count {
		c["hv.exits"] += float64(n)
		c["hv.exits."+m.Cfg.Port.Classify(isa.ExitReason(reason)).String()] += float64(n)
	}
	c["sim.events"] += float64(m.Eng.Dispatched())
	st := &m.Core.Stats
	c["cpu.level_swaps"] += float64(st.LevelSwaps)
	c["cpu.ctxt_accesses"] += float64(st.CtxtAccesses)
	c["cpu.thunk_reg_moves"] += float64(st.ThunkRegMoves)
	c["cpu.injected_irqs"] += float64(st.InjectedIRQs)
	for _, t := range []interface{ Walks() uint64 }{m.Ept01, m.Ept12} {
		c["ept.walks"] += float64(t.Walks())
	}
	if m.Ept02 != nil {
		c["ept.walks"] += float64(m.Ept02.Walks())
	}
	if m.Chan != nil {
		c["swsvt.reflections"] += float64(m.Chan.Reflections.Value())
		c["swsvt.fallbacks"] += float64(m.Chan.Fallbacks.Value())
	}
	irqs := []ports.IRQController{m.VcpuL1.VirtLAPIC, m.VC12.VirtLAPIC, m.L2LAPIC()}
	if m.VcpuSVt != nil {
		irqs = append(irqs, m.VcpuSVt.VirtLAPIC)
	}
	for i := 0; i < m.Core.Contexts(); i++ {
		irqs = append(irqs, m.Core.LAPIC(cpu.ContextID(i)))
	}
	for _, l := range irqs {
		if l != nil {
			c["irq.delivered"] += float64(l.Delivered())
		}
	}
}

// cpuidVM is the nested CPUID loop (Figure 6, Table 1).
func cpuidVM(port string, mode hv.Mode, n int) vm {
	loop := &cpuidLoop{n: n}
	return vm{
		build: func() (*machine.Machine, *machine.IOStack) {
			return machine.NewNested(machineConfig(port, mode)), nil
		},
		install: func(m *machine.Machine, _ *machine.IOStack) { m.SetL2Workload(loop) },
		result: func(m *machine.Machine) (string, error) {
			if loop.i != n || m.L0.DeadlockDetected {
				return "", fmt.Errorf("L2 ran %d of %d CPUIDs (deadlock=%v)", loop.i, n, m.L0.DeadlockDetected)
			}
			return fmt.Sprintf("perop=%d", m.Now()/sim.Time(n)), nil
		},
	}
}

// ioVM is one Figure 7 cell: netperf TCP_RR 1 B against an echo peer,
// ioping 512 B random reads or writes, or fio 4 KB random reads.
func ioVM(kind string, mode hv.Mode, n int, seed int64) (vm, func() float64) {
	var (
		lat    func() []float64
		metric func() float64
	)
	v := vm{
		build: func() (*machine.Machine, *machine.IOStack) {
			cfg := machineConfig("x86", mode)
			io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
			return machine.NewNested(cfg), io
		},
		install: func(m *machine.Machine, io *machine.IOStack) {
			if kind == "netrr" {
				io.NIC.Peer = &netsim.EchoPeer{
					Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
					ServiceTime: 5 * sim.Microsecond, RespSize: 1,
				}
				w := &workload.NetRR{N: n, ReqSize: 1, TCPModel: true, SMP: true}
				m.InstallL2(io, true, false, func(env *guest.Env) { w.Run(env) })
				lat = func() []float64 { return w.Lat }
				metric = func() float64 { return meanOf(w.Lat) }
				return
			}
			w := &workload.DiskBench{N: n, Size: 512, Write: kind == "randwr", Sectors: 1 << 20, Rng: sim.NewRand(seed), SMP: true}
			if kind == "fio" {
				w.Size = 4096
			}
			m.InstallL2(io, false, true, func(env *guest.Env) { w.Run(env) })
			lat = func() []float64 { return w.Lat }
			metric = func() float64 {
				if kind == "fio" {
					return w.ThroughputKBs()
				}
				return meanOf(w.Lat)
			}
		},
	}
	v.result = func(m *machine.Machine) (string, error) {
		if got := len(lat()); got != n || m.L0.DeadlockDetected {
			return "", fmt.Errorf("L2 completed %d of %d ops (deadlock=%v)", got, n, m.L0.DeadlockDetected)
		}
		return fmt.Sprintf("result=%.4f", metric()), nil
	}
	return v, func() float64 { return metric() }
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// machineRun is the measured phase of cpuid and io.
func machineRun(r *runner, plan []cell) {
	r.serial(plan, func(t *track, c cell) error {
		var v vm
		if c.kind == "cpuid" {
			v = cpuidVM(c.port, c.mode, c.n)
		} else {
			v, _ = ioVM(c.kind, c.mode, c.n, c.seed)
		}
		root := t.begin("cell."+c.kind, c.idx)
		res, err := r.runVM(t, c.idx, v)
		t.end(root)
		if err != nil {
			return err
		}
		r.golden[c.idx] = c.String() + " " + res.summary
		r.setups = append(r.setups, res.setup.Seconds())
		r.allocBytes += res.allocBytes
		r.cellDone(res.wall)
		return nil
	})
}

// The paper's SW SVt and HW SVt speedups over the baseline, held against
// the simulator's on the x86 reference cells (Figure 6; Figure 7 latency
// and fio bandwidth). Figure 7 is data the cost model was not tuned on.
var (
	svtModes   = [2]hv.Mode{hv.ModeSWSVt, hv.ModeHWSVt}
	paperCPUID = [2]float64{1.23, 1.94}
	paperIO    = map[string][2]float64{
		"netrr":  {1.10, 2.38},
		"randrd": {1.30, 2.18},
		"randwr": {1.05, 2.26},
		"fio":    {1.55, 2.31},
	}
)

// cpuidReference runs every (port, mode) once at the paper's n = 500;
// the x86 cells give paper_err against Figure 6.
func cpuidReference(r *runner) {
	perop := map[hv.Mode]float64{}
	for _, port := range cpuidPorts {
		for _, mode := range hv.AllModes() {
			c := cell{idx: -1, kind: "cpuid", port: port, mode: mode, n: 500}
			r.guard(c, func() error {
				res, err := r.runVM(nil, -1, cpuidVM(port, mode, 500))
				if port == "x86" {
					perop[mode] = float64(res.virt) / 500
				}
				return err
			})
		}
	}
	var errs []float64
	for i, mode := range svtModes {
		errs = append(errs, math.Abs(perop[hv.ModeBaseline]/perop[mode]/paperCPUID[i]-1))
	}
	r.paperErr = meanOf(errs)
}

// ioReference runs every (kind, mode) once at n = 200 with the disk
// seeds the repository's Figure 7 harness uses; it gives paper_err
// against Figure 7.
func ioReference(r *runner) {
	var errs []float64
	for _, kind := range ioKinds {
		val := map[hv.Mode]float64{}
		for _, mode := range ioModes {
			seed := int64(42)
			if kind == "fio" {
				seed = 43
			}
			c := cell{idx: -1, kind: kind, mode: mode, n: 200, seed: seed}
			r.guard(c, func() error {
				v, metric := ioVM(kind, mode, 200, seed)
				_, err := r.runVM(nil, -1, v)
				val[mode] = metric()
				return err
			})
		}
		for i, mode := range svtModes {
			got := val[hv.ModeBaseline] / val[mode] // latency: lower is faster
			if kind == "fio" {
				got = val[mode] / val[hv.ModeBaseline] // bandwidth: higher is faster
			}
			errs = append(errs, math.Abs(got/paperIO[kind][i]-1))
		}
	}
	r.paperErr = meanOf(errs)
}
