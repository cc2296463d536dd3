package svtsim

import (
	"io"

	"svtsim/internal/exp"
	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/ports"
	"svtsim/internal/report"
)

// AllModes returns the system variants in the paper's presentation
// order (Figure 6's bars). The result is a fresh slice each call —
// callers may reorder or trim it without affecting anyone else.
func AllModes() []Mode { return exp.AllModes() }

// ParseMode parses a mode name as printed by Mode.String ("baseline",
// "sw-svt", "hw-svt", "hw-svt-bypass"; "sw"/"hw"/"bypass" accepted as
// shorthand).
func ParseMode(s string) (Mode, error) { return hv.ParseMode(s) }

// --- Host topology (fleet-scale experiments) ---------------------------

// HostTopology describes the simulated host: sockets x cores x SMT
// contexts. SVt-thread placement classes (same core, cross-core,
// cross-NUMA) emerge from where the L0 scheduler lands threads on this
// topology rather than from a per-machine configuration knob.
type HostTopology = host.Topology

// HostCtxID is a hardware context index on a host topology.
type HostCtxID = host.CtxID

// HostParams is the host-level cost model: IPI latencies by distance,
// the scheduler quantum, and the SMT throughput share.
type HostParams = host.Params

// DefaultHostTopology is the paper's testbed: 2 sockets x 8 cores x 2
// SMT contexts (Table 4's dual E5-2630v3).
var DefaultHostTopology = host.DefaultTopology

// ParseHostTopology parses "SxCxT" ("2x8x2") or "CxT" ("8x2", one
// socket) into a validated topology.
func ParseHostTopology(s string) (HostTopology, error) { return host.ParseTopology(s) }

// DefaultHostParams returns the calibrated host cost model.
func DefaultHostParams() HostParams { return host.DefaultParams() }

// --- Architecture ports ------------------------------------------------

// PortNames lists the registered architecture ports in sorted order
// ("armlike", "x86").
func PortNames() []string { return ports.Names() }

// PortCell is one port x mode measurement of the cross-ISA comparison.
type PortCell = exp.PortCell

// PortComparison is the cross-ISA comparison grid: one row per port,
// cells across the four system variants.
type PortComparison = exp.PortComparison

// --- Session ----------------------------------------------------------

// A Session carries one experiment campaign's configuration — fault
// spec, observability, worker-pool width, host topology — as instance
// state, and every experiment and report is a Session method. Two
// sessions never share mutable state, so concurrent campaigns (one
// traced, one not; different topologies) cannot race.
type Session struct {
	exp *exp.Session
	rep *report.Renderer
}

// Option configures a Session at construction.
type Option func(*exp.Session) error

// WithParallelism sets the session's worker-pool width for experiment
// sweeps. n <= 0 uses GOMAXPROCS, the default. Results are
// byte-identical at any width; only wall-clock time changes.
func WithParallelism(n int) Option {
	return func(s *exp.Session) error { s.SetParallelism(n); return nil }
}

// WithObs arms the observability plane for the session's runs.
func WithObs(o *ObsOptions) Option {
	return func(s *exp.Session) error { s.SetObs(o); return nil }
}

// WithFaults arms the deterministic fault-injection plane for the
// session's runs.
func WithFaults(spec *FaultSpec) Option {
	return func(s *exp.Session) error { s.SetFaults(spec); return nil }
}

// WithHostTopology sets the host topology used by the fleet-scale
// experiments (DensitySweep, Consolidation).
func WithHostTopology(t HostTopology) Option {
	return func(s *exp.Session) error { return s.SetTopology(t) }
}

// WithHostParams overrides the host-level cost model.
func WithHostParams(p HostParams) Option {
	return func(s *exp.Session) error { s.SetHostParams(p); return nil }
}

// WithPort selects the architecture port backing the session's machines
// by registry name ("" and "x86" both select the default VT-x/LAPIC
// model; "armlike" selects the EL2/vGIC-style model). The port's
// calibrated cost model, exit vocabulary, and interrupt controller come
// with it.
func WithPort(name string) Option {
	return func(s *exp.Session) error {
		p, err := ports.Parse(name)
		if err != nil {
			return err
		}
		s.SetPort(p)
		return nil
	}
}

// WithShards sets the virtual-time engine shard count used by the
// fleet-scale experiments. n <= 1 runs the single-heap engine. Results
// are byte-identical at any shard count; only wall-clock time changes.
func WithShards(n int) Option {
	return func(s *exp.Session) error { s.SetShards(n); return nil }
}

// NewSession constructs a session from the calibrated defaults plus the
// given options.
func NewSession(opts ...Option) (*Session, error) {
	es := exp.NewSession()
	for _, opt := range opts {
		if err := opt(es); err != nil {
			return nil, err
		}
	}
	return &Session{exp: es, rep: report.NewRenderer(es)}, nil
}

// --- Session configuration (mutable after construction) ----------------

// SetObs arms (or, with nil, disarms) tracing and metrics for the
// session's subsequent runs.
func (s *Session) SetObs(o *ObsOptions) { s.exp.SetObs(o) }

// LastObs returns the plane captured by the session's most recent run
// (nil when disarmed).
func (s *Session) LastObs() *ObsPlane { return s.exp.LastObs() }

// SetFaults arms (or, with nil, clears) fault injection for the
// session's subsequent runs.
func (s *Session) SetFaults(spec *FaultSpec) { s.exp.SetFaults(spec) }

// SetParallelism sets the session's worker-pool width for sweeps.
func (s *Session) SetParallelism(n int) { s.exp.SetParallelism(n) }

// Parallelism reports the session's effective worker-pool width.
func (s *Session) Parallelism() int { return s.exp.Parallelism() }

// SetShards sets the engine shard count for fleet-scale experiments.
func (s *Session) SetShards(n int) { s.exp.SetShards(n) }

// Shards reports the session's effective engine shard count.
func (s *Session) Shards() int { return s.exp.Shards() }

// SetHostTopology sets the host topology for fleet-scale experiments.
func (s *Session) SetHostTopology(t HostTopology) error { return s.exp.SetTopology(t) }

// HostTopology reports the session's host topology.
func (s *Session) HostTopology() HostTopology { return s.exp.Topology() }

// SetPort selects the architecture port for the session's subsequent
// runs by registry name ("" restores the default x86 port).
func (s *Session) SetPort(name string) error {
	p, err := ports.Parse(name)
	if err != nil {
		return err
	}
	s.exp.SetPort(p)
	return nil
}

// Port reports the name of the session's architecture port.
func (s *Session) Port() string { return s.exp.Port().Name() }

// --- Session experiments: one method per paper table/figure ------------

// CPUIDNative measures native cpuid (Figure 6 "L0").
func (s *Session) CPUIDNative(n int) CPUIDResult { return s.exp.CPUIDNative(n) }

// CPUIDSingleLevel measures single-level guest cpuid (Figure 6 "L1").
func (s *Session) CPUIDSingleLevel(n int) CPUIDResult { return s.exp.CPUIDSingleLevel(n) }

// CPUIDNested measures nested cpuid under the given mode.
func (s *Session) CPUIDNested(mode Mode, n int) CPUIDResult { return s.exp.CPUIDNested(mode, n) }

// CPUIDNestedNoShadowing is the §2.1 shadowing ablation.
func (s *Session) CPUIDNestedNoShadowing(n int) CPUIDResult { return s.exp.CPUIDNestedNoShadowing(n) }

// CPUIDNestedWithThunkRegs sweeps the context-switch thunk's register
// count.
func (s *Session) CPUIDNestedWithThunkRegs(mode Mode, regs, n int) CPUIDResult {
	return s.exp.CPUIDNestedWithThunkRegs(mode, regs, n)
}

// TraceNestedCPUID runs a nested cpuid workload with exit tracing.
func (s *Session) TraceNestedCPUID(mode Mode, n, ring int) []TraceEntry {
	return s.exp.TraceNestedCPUID(mode, n, ring)
}

// NetLatency runs netperf TCP_RR (Figure 7).
func (s *Session) NetLatency(mode Mode, n int) IOResult { return s.exp.NetLatency(mode, n) }

// NetBandwidth runs netperf TCP_STREAM (Figure 7).
func (s *Session) NetBandwidth(mode Mode, d Time) IOResult { return s.exp.NetBandwidth(mode, d) }

// DiskLatency runs ioping (Figure 7).
func (s *Session) DiskLatency(mode Mode, write bool, n int) IOResult {
	return s.exp.DiskLatency(mode, write, n)
}

// DiskBandwidth runs fio (Figure 7).
func (s *Session) DiskBandwidth(mode Mode, write bool, n int) IOResult {
	return s.exp.DiskBandwidth(mode, write, n)
}

// Memcached runs the §6.3.1 open-loop ETC experiment.
func (s *Session) Memcached(mode Mode, rate float64, d Time) MemcachedResult {
	return s.exp.Memcached(mode, rate, d)
}

// TPCC runs the §6.3.2 experiment, returning ktpm (Figure 9).
func (s *Session) TPCC(mode Mode, d Time) float64 { return s.exp.TPCC(mode, d) }

// Video runs the §6.3.3 playback experiment (full five minutes).
func (s *Session) Video(mode Mode, fps int) VideoResult { return s.exp.Video(mode, fps) }

// VideoN runs the playback experiment over a chosen number of frames.
func (s *Session) VideoN(mode Mode, fps, frames int) VideoResult {
	return s.exp.VideoN(mode, fps, frames)
}

// ChannelStudy sweeps the SW SVt wait policies and placements (§6.1).
func (s *Session) ChannelStudy(n int, workloads []Time) []ChannelPoint {
	return s.exp.ChannelStudy(n, workloads)
}

// ComparePorts runs the nested TCP_RR workload (n transactions) for
// every named architecture port (empty = all registered) across all four
// system variants and returns the cross-ISA grid.
func (s *Session) ComparePorts(portNames []string, n int) (*PortComparison, error) {
	return s.exp.ComparePorts(portNames, n)
}

// FaultSweep runs the nested cpuid workload with the given fault spec
// armed and reports how the recovery machinery coped.
func (s *Session) FaultSweep(mode Mode, spec *FaultSpec, n int) FaultSweepResult {
	return s.exp.FaultSweep(mode, spec, n, nil)
}

// FaultSweepGrid runs every cell on the session's worker pool; results
// are in cell order and byte-identical to a serial run.
func (s *Session) FaultSweepGrid(cells []FaultCell) []FaultSweepResult {
	return s.exp.FaultSweepGrid(cells)
}

// --- Fleet-scale experiments -------------------------------------------

// DensityVM is one VM's outcome at one packing level.
type DensityVM = exp.DensityVM

// DensityPoint is one packing level: k VMs on the host in one mode.
type DensityPoint = exp.DensityPoint

// DensityResult is one mode's full packing sweep.
type DensityResult = exp.DensityResult

// Consolidation packs k nested VMs onto the session's host topology in
// one mode: the L0 scheduler places each VM's threads (a SW-SVt VM is a
// two-thread gang), and the point reports per-VM latency and throughput
// under contention — SMT sibling interference, polling SVt-threads
// stealing sibling cycles, migrations with cross-core reschedule IPIs.
func (s *Session) Consolidation(mode Mode, k int) DensityPoint { return s.exp.Consolidation(mode, k) }

// DensitySweep packs k = 1..kmax nested VMs per mode and reports every
// packing level plus the max density whose worst per-VM p99 meets the
// SLO (microseconds). kmax <= 0 sweeps up to the topology's context
// count. The sweep is byte-identical at any parallelism width.
func (s *Session) DensitySweep(modes []Mode, kmax int, sloUs float64) []DensityResult {
	return s.exp.DensitySweep(modes, kmax, sloUs)
}

// StormResult is one mode's outcome under a migration storm.
type StormResult = exp.StormResult

// MigrationStorm packs k VMs in one mode and replays them under a
// seeded storm of `storms` live gang migrations: VMs are paused,
// snapshotted, moved between cores at distance-priced transfer rates,
// and sometimes forced to fail mid-flight — driving retries, backoff,
// and atomic gang rollback. The session's fault spec, when armed, fires
// at the migrate/* sites during the storm. Deterministic per seed.
func (s *Session) MigrationStorm(mode Mode, k, storms int, seed int64) StormResult {
	return s.exp.MigrationStorm(mode, k, storms, seed)
}

// StormTable runs MigrationStorm for every mode on the session's worker
// pool; the table is byte-identical to running the cells serially.
func (s *Session) StormTable(modes []Mode, k, storms int, seed int64) []StormResult {
	return s.exp.StormTable(modes, k, storms, seed)
}

// LBResult is one (mode, scenario) cell of the load-balancer figure:
// offered/completed counts, goodput, p50/p99/p999 tail latency,
// SLO-violation windows, transport tallies, and storm counters.
type LBResult = exp.LBResult

// LBScenarios lists the supported load-balancer scenario names in
// report order: steady, overload, burst, storm, faults.
func LBScenarios() []string { return exp.LBScenarios() }

// LoadBalancer runs one (mode, scenario) cell: k nested backend VMs
// packed on the session's host topology behind an L0-side balancer
// spraying an open-loop arrival trace over reliable netstack flows.
// Phase 1 measures each backend's service distribution uncontended
// through the mode's full exit machinery; phase 2 replays fleet
// contention (plus the storm or fault plane, per scenario) and drives
// the seeded traffic trace across the host's topology-priced delivery
// fabric. Byte-identical at any parallelism width and shard count.
func (s *Session) LoadBalancer(mode Mode, k int, scenario string, seed int64, sloUs float64) LBResult {
	return s.exp.LoadBalancer(mode, k, scenario, seed, sloUs)
}

// LoadBalancerTable runs LoadBalancer for every mode on the session's
// worker pool; the table is byte-identical to running the cells
// serially.
func (s *Session) LoadBalancerTable(modes []Mode, k int, scenario string, seed int64, sloUs float64) []LBResult {
	return s.exp.LoadBalancerTable(modes, k, scenario, seed, sloUs)
}

// LoadBalancerSweep runs every scenario for every mode (scenario-major
// rows in LBScenarios order, mode-minor columns).
func (s *Session) LoadBalancerSweep(modes []Mode, k int, seed int64, sloUs float64) []LBResult {
	return s.exp.LoadBalancerSweep(modes, k, seed, sloUs)
}

// --- Session reports: paper-formatted output ---------------------------

// ReportTable1 prints the Table 1 breakdown next to the paper's numbers.
func (s *Session) ReportTable1(w io.Writer, n int) { s.rep.Table1(w, n) }

// ReportTable3 prints the code-change inventory (Table 3 analogue),
// counting the source under root.
func (s *Session) ReportTable3(w io.Writer, root string) { s.rep.Table3(w, root) }

// ReportTable4 prints the modelled machine parameters (Table 4).
func (s *Session) ReportTable4(w io.Writer) { s.rep.Table4(w) }

// ReportFigure6 prints the cpuid latency comparison.
func (s *Session) ReportFigure6(w io.Writer, n int) { s.rep.Figure6(w, n) }

// ReportFigure7 prints the I/O subsystem comparison.
func (s *Session) ReportFigure7(w io.Writer, quick bool) { s.rep.Figure7(w, quick) }

// ReportFigure8 prints the memcached load sweep.
func (s *Session) ReportFigure8(w io.Writer, quick bool) { s.rep.Figure8(w, quick) }

// ReportFigure9 prints the TPC-C comparison.
func (s *Session) ReportFigure9(w io.Writer, quick bool) { s.rep.Figure9(w, quick) }

// ReportFigure10 prints the video playback comparison.
func (s *Session) ReportFigure10(w io.Writer, quick bool) { s.rep.Figure10(w, quick) }

// ReportChannels prints the §6.1 channel study.
func (s *Session) ReportChannels(w io.Writer, quick bool) { s.rep.Channels(w, quick) }

// ReportProfiles prints the §6.2/§6.3 exit-reason profiles.
func (s *Session) ReportProfiles(w io.Writer) { s.rep.Profiles(w) }

// ReportDensity prints the fleet consolidation sweep: per-mode packing
// levels with worst-case latency, aggregate throughput, utilization,
// and the max density meeting the p99 SLO.
func (s *Session) ReportDensity(w io.Writer, kmax int, sloUs float64) {
	s.rep.Density(w, kmax, sloUs)
}

// ReportPorts prints the cross-ISA comparison table: every named port
// (empty = all registered) under all four system variants, with exit
// counts bucketed by each port's taxonomy.
func (s *Session) ReportPorts(w io.Writer, portNames []string, n int) error {
	return s.rep.Ports(w, portNames, n)
}
