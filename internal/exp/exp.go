// Package exp contains the experiment harnesses that regenerate every
// table and figure of the paper's evaluation (§6). Each experiment
// assembles a machine, runs the workload deterministically, and returns
// structured results; the report package renders them in the paper's
// format, and both the command-line tools and the benchmark suite reuse
// them.
package exp

import (
	"fmt"
	"sort"

	"svtsim/internal/cpu"
	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/machine"
	"svtsim/internal/netsim"
	"svtsim/internal/obs"
	"svtsim/internal/sim"
	"svtsim/internal/stats"
	"svtsim/internal/workload"
)

// AllModes returns the modes under test in the paper's presentation
// order. The result is a fresh slice each call, so callers may reorder
// or trim it freely.
func AllModes() []hv.Mode {
	return []hv.Mode{hv.ModeBaseline, hv.ModeSWSVt, hv.ModeHWSVt}
}

// cpuidLoop is the §6.1 micro-benchmark program: n cpuid
// instructions, each preceded by a compute block when compute > 0 (the
// paper's "dependent register increments that simulate a variable
// workload").
type cpuidLoop struct {
	n, i    int
	compute sim.Time
}

func (g *cpuidLoop) Step() cpu.Action {
	if g.i >= 2*g.n {
		return cpu.Action{Kind: cpu.ActDone}
	}
	g.i++
	if g.i%2 == 1 {
		if g.compute > 0 {
			return cpu.Action{Kind: cpu.ActCompute, Dur: g.compute}
		}
		g.i++
	}
	return cpu.Action{Kind: cpu.ActInstr, Instr: isa.CPUID(1)}
}
func (g *cpuidLoop) DeliverIRQ(int) {}

// CPUIDResult is one Figure 6 bar.
type CPUIDResult struct {
	Label     string
	PerOp     sim.Time
	Breakdown *sim.Ledger // Table 1 stages (nested runs only)
}

// CPUIDNative is the Figure 6 "L0" bar: with no virtualization nothing
// traps, so each of the n cpuids costs the instruction's native latency.
func (s *Session) CPUIDNative(n int) CPUIDResult {
	return CPUIDResult{Label: "L0", PerOp: s.config(hv.ModeBaseline).Costs.InstrCPUID}
}

// CPUIDSingleLevel measures the Figure 6 "L1" bar.
func (s *Session) CPUIDSingleLevel(n int) CPUIDResult {
	m := machine.NewSingleLevel(s.config(hv.ModeBaseline))
	m.SetGuestWorkload(&cpuidLoop{n: n})
	s.runSingle(m)
	return CPUIDResult{Label: "L1", PerOp: m.Now() / sim.Time(n)}
}

// CPUIDNested measures a nested cpuid run (Figure 6 "L2", "SW SVt" and
// "HW SVt" bars, and the Table 1 breakdown for the baseline).
func (s *Session) CPUIDNested(mode hv.Mode, n int) CPUIDResult {
	m := machine.NewNested(s.config(mode))
	led := &sim.Ledger{}
	m.Eng.SetLedger(led)
	m.SetL2Workload(&cpuidLoop{n: n})
	s.run(m)
	m.Shutdown()
	label := "L2"
	switch mode {
	case hv.ModeSWSVt:
		label = "SW SVt"
	case hv.ModeHWSVt:
		label = "HW SVt"
	}
	return CPUIDResult{Label: label, PerOp: m.Now() / sim.Time(n), Breakdown: led}
}

// CPUIDNestedNoShadowing runs the baseline nested cpuid with hardware
// VMCS shadowing disabled (the §2.1 ablation). Only tests call it; it
// stays as a DESIGN §4 ablation that EXPERIMENTS.md reports.
func (s *Session) CPUIDNestedNoShadowing(n int) CPUIDResult {
	cfg := s.config(hv.ModeBaseline)
	cfg.DisableVMCSShadowing = true
	m := machine.NewNested(cfg)
	m.SetL2Workload(&cpuidLoop{n: n})
	s.run(m)
	m.Shutdown()
	return CPUIDResult{Label: "L2 (no shadowing)", PerOp: m.Now() / sim.Time(n)}
}

// CPUIDNestedWithThunkRegs runs nested cpuid with a chosen number of
// software-thunk registers (the "dozens of registers" sensitivity). Only
// tests call it; it stays as a DESIGN §4 ablation that EXPERIMENTS.md
// reports.
func (s *Session) CPUIDNestedWithThunkRegs(mode hv.Mode, regs, n int) CPUIDResult {
	cfg := s.config(mode)
	cfg.Costs.ThunkRegs = regs
	m := machine.NewNested(cfg)
	m.SetL2Workload(&cpuidLoop{n: n})
	s.run(m)
	m.Shutdown()
	return CPUIDResult{Label: "thunk-sweep", PerOp: m.Now() / sim.Time(n)}
}

// TraceEntry is one VM exit L0 handled, read back from the
// observability plane.
type TraceEntry struct {
	At       sim.Time
	VCPU     string
	Name     string // the exit reason in the port's vocabulary
	Qual     uint64
	Nested   bool // an L2 exit L0 handled on the nested flow
	Duration sim.Time
}

func (e TraceEntry) String() string {
	lvl := "direct"
	if e.Nested {
		lvl = "nested"
	}
	return fmt.Sprintf("%-10s %-8s %-6s %-20s qual=%#x took=%s",
		e.At, e.VCPU, lvl, e.Name, e.Qual, e.Duration)
}

// TraceNestedCPUID runs a nested cpuid workload with an observability
// plane armed on its own machine (the session's obs setting and LastObs
// are untouched) and returns L0's exits: the L1 vCPUs' direct exits and
// L2's nested exits, merged across context tracks, ordered by start
// time, newest ring kept.
func (s *Session) TraceNestedCPUID(mode hv.Mode, n, ring int) []TraceEntry {
	cfg := s.config(mode)
	// A nested cpuid puts at most four events on a track (under SW-SVt:
	// the nested exit, its reflect span, a ring push and a ring pop), so
	// eight slots per wanted exit keep the newest ring on every track.
	cfg.Obs = &obs.Options{RingCap: 8 * ring}
	m := machine.NewNested(cfg)
	m.SetL2Workload(&cpuidLoop{n: n})
	func() {
		defer annotatePanic(m)
		m.Run()
	}()
	m.Shutdown()

	tr := m.Obs.Tracer
	// Exit spans on L1's vCPU for L2 are the guest hypervisor's own
	// handling of reflected exits, not L0's.
	l1 := tr.Intern(m.VC12.Name)
	var out []TraceEntry
	for i := 0; i < tr.Contexts(); i++ {
		tr.Ring(i).Do(func(ev obs.Event) {
			if ev.Kind != obs.KindNestedExit && (ev.Kind != obs.KindVMExit || ev.Label == l1) {
				return
			}
			r := isa.ExitReason(ev.Arg1)
			out = append(out, TraceEntry{
				At: ev.At, VCPU: tr.Lookup(ev.Label), Name: tr.ExitName(r),
				Qual: ev.Arg2, Nested: ev.Kind == obs.KindNestedExit, Duration: ev.Dur,
			})
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	if len(out) > ring {
		out = out[len(out)-ring:]
	}
	return out
}

// IOResult is one Figure 7 measurement.
type IOResult struct {
	MeanUs    float64
	P50Us     float64
	P99Us     float64
	Mbps      float64
	KBs       float64
	ExitStats *hv.Profile // L0's nested-exit profile
}

// netMachine builds a nested machine with the network stack and a peer
// factory hook.
func (s *Session) netMachine(mode hv.Mode) (*machine.Machine, *machine.IOStack) {
	cfg := s.config(mode)
	io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
	m := machine.NewNested(cfg)
	return m, io
}

// netRRMachine builds a nested machine running n netperf TCP_RR
// transactions (1-byte requests) against an echoing peer, with led
// attached (nil for none).
func netRRMachine(cfg machine.Config, led *sim.Ledger, n int) (*machine.Machine, *machine.IOStack, *workload.NetRR) {
	io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
	m := machine.NewNested(cfg)
	m.Eng.SetLedger(led)
	io.NIC.Peer = &netsim.EchoPeer{
		Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
		ServiceTime: 5 * sim.Microsecond, RespSize: 1,
	}
	w := &workload.NetRR{N: n, ReqSize: 1, TCPModel: true, SMP: true}
	m.InstallL2(io, true, false, func(env *guest.Env) { w.Run(env) })
	return m, io, w
}

// NetLatency runs netperf TCP_RR (Figure 7 "Network latency"): n 1-byte
// transactions against an echoing peer.
func (s *Session) NetLatency(mode hv.Mode, n int) IOResult {
	m, _, w := netRRMachine(s.config(mode), nil, n)
	s.run(m)
	m.Shutdown()
	sum, _ := stats.Summarize(w.Lat)
	return IOResult{MeanUs: sum.Mean, P50Us: sum.P50, P99Us: sum.P99, ExitStats: &m.L0.NestedProf}
}

// NetBandwidth runs netperf TCP_STREAM (Figure 7 "Network bandwidth"):
// 16 KB messages for the given duration; throughput measured at the peer.
func (s *Session) NetBandwidth(mode hv.Mode, d sim.Time) IOResult {
	m, io := s.netMachine(mode)
	peer := &netsim.AckPeer{
		Back: io.LinkIn, Dst: io.NIC,
		AckEvery: workload.StreamAckEvery, AckSize: 64,
	}
	io.NIC.Peer = peer
	io.L0Net.TxCoalesce = 16
	io.SetL1NetTxCoalesce(16)
	w := &workload.NetStream{Duration: d, MsgSize: 16 * 1024, Window: 2 << 20}
	m.InstallL2(io, true, false, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	mbps := float64(peer.Received) * 8 / d.Seconds() / 1e6
	return IOResult{Mbps: mbps, ExitStats: &m.L0.NestedProf}
}

// DiskLatency runs ioping (Figure 7 "Disk randrd/randwr latency"):
// n synchronous 512-byte random accesses.
func (s *Session) DiskLatency(mode hv.Mode, write bool, n int) IOResult {
	m, io := s.netMachine(mode)
	w := &workload.DiskBench{
		N: n, Size: 512, Write: write, Sectors: 1 << 20,
		Rng: sim.NewRand(42), SMP: true,
	}
	m.InstallL2(io, false, true, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	sum, _ := stats.Summarize(w.Lat)
	return IOResult{MeanUs: sum.Mean, P50Us: sum.P50, P99Us: sum.P99, ExitStats: &m.L0.NestedProf}
}

// DiskBandwidth runs fio (Figure 7 "Disk randrd/randwr bandwidth"):
// n synchronous 4 KB random accesses, reporting KB/s.
func (s *Session) DiskBandwidth(mode hv.Mode, write bool, n int) IOResult {
	m, io := s.netMachine(mode)
	w := &workload.DiskBench{
		N: n, Size: 4096, Write: write, Sectors: 1 << 20,
		Rng: sim.NewRand(43), SMP: true,
	}
	m.InstallL2(io, false, true, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	return IOResult{KBs: w.ThroughputKBs(), ExitStats: &m.L0.NestedProf}
}

// MemcachedResult is one point of Figure 8's load sweep.
type MemcachedResult struct {
	AvgUs  float64
	P99Us  float64
	Served uint64
}

// memcachedMachine builds a nested machine serving memcached to an
// open-loop ETC client offering rate QPS for d, with led attached (nil
// for none). The client's arrival, key and request streams split from
// one RNG seeded with seed.
func memcachedMachine(cfg machine.Config, led *sim.Ledger, rate float64, d sim.Time, seed int64) (*machine.Machine, *machine.IOStack, *workload.MemcachedServer, *netsim.OpenLoopClient) {
	io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
	m := machine.NewNested(cfg)
	m.Eng.SetLedger(led)
	srv := workload.DefaultMemcached(d + 100*sim.Millisecond)
	m.InstallL2(io, true, false, func(env *guest.Env) { srv.Run(env) })

	rng := sim.NewRand(seed)
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
	return m, io, srv, client
}

// Memcached runs the §6.3.1 experiment: an open-loop ETC load at rate
// QPS against the in-guest memcached server for duration d.
func (s *Session) Memcached(mode hv.Mode, rate float64, d sim.Time) MemcachedResult {
	m, _, srv, client := memcachedMachine(s.config(mode), nil, rate, d, 7)
	s.run(m)
	m.Shutdown()
	res := MemcachedResult{Served: srv.Served}
	if len(client.Lat) > 0 {
		res.AvgUs = stats.Mean(client.Lat)
		res.P99Us = stats.Percentile(client.Lat, 99)
	}
	return res
}

// TPCC runs the §6.3.2 experiment for duration d, returning ktpm.
func (s *Session) TPCC(mode hv.Mode, d sim.Time) float64 {
	m, io := s.netMachine(mode)
	w := &workload.TPCC{Duration: d, Rng: sim.NewRand(17)}
	m.InstallL2(io, false, true, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	return w.KTpm()
}

// VideoResult is one Figure 10 bar.
type VideoResult struct {
	Dropped int
	Played  int
}

// VideoN runs the §6.3.3 video experiment at the given frame rate over
// a chosen number of frames (the paper plays five minutes: fps*300).
func (s *Session) VideoN(mode hv.Mode, fps, frames int) VideoResult {
	m, io := s.netMachine(mode)
	w := workload.NewVideo(fps, sim.NewRand(23))
	w.Frames = frames
	m.InstallL2(io, false, true, func(env *guest.Env) { w.Run(env) })
	s.run(m)
	m.Shutdown()
	return VideoResult{Dropped: w.Dropped, Played: w.Played}
}
