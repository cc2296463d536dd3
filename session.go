package svtsim

import (
	"svtsim/internal/exp"
	"svtsim/internal/host"
	"svtsim/internal/report"
)

// A Session carries one experiment campaign's configuration — fault
// spec, observability, worker-pool width, host topology, architecture
// port — as instance state. It embeds the experiment session, whose
// methods are the experiments (CPUIDNested, NetLatency, DensitySweep,
// LoadBalancer, ...) and the setters (SetParallelism, SetObs,
// SetFaults, SetTopology, SetPort), and the report
// renderer, whose methods print the paper's tables and figures
// (Table1, Figure6, Density, Ports, ...). Two sessions never share
// mutable state, so concurrent campaigns (one traced, one not;
// different topologies) cannot race.
type Session struct {
	*exp.Session
	*report.Renderer
}

// NewSession returns a session with the calibrated defaults: no faults,
// no observability, a GOMAXPROCS-wide worker pool, the paper's 2x8x2
// testbed topology and the x86 port.
func NewSession() *Session {
	es := exp.NewSession()
	return &Session{Session: es, Renderer: report.NewRenderer(es)}
}

// DefaultHostTopology is the paper's testbed: 2 sockets x 8 cores x 2
// SMT contexts (Table 4's dual E5-2630v3), a new session's topology.
var DefaultHostTopology = host.DefaultTopology

// Types in the signatures of Session methods and their results.
type (
	// HostTopology describes the simulated host: sockets x cores x SMT
	// contexts. SVt-thread placement classes (same core, cross-core,
	// cross-NUMA) emerge from where the L0 scheduler lands threads on
	// this topology rather than from a per-machine configuration knob.
	HostTopology = host.Topology
	// HostCtxID is a hardware context index on a host topology.
	HostCtxID = host.CtxID

	// CPUIDResult is one Figure 6 bar (with the Table 1 breakdown
	// attached for nested runs).
	CPUIDResult = exp.CPUIDResult
	// IOResult is one Figure 7 measurement.
	IOResult = exp.IOResult
	// MemcachedResult is one Figure 8 sweep point.
	MemcachedResult = exp.MemcachedResult
	// VideoResult is one Figure 10 bar.
	VideoResult = exp.VideoResult
	// ChannelPoint is one §6.1 channel-study cell.
	ChannelPoint = exp.ChannelPoint
	// TraceEntry is one VM exit L0 handled (TraceNestedCPUID).
	TraceEntry = exp.TraceEntry

	// PortCell is one port x mode measurement of the cross-ISA
	// comparison.
	PortCell = exp.PortCell
	// PortComparison is the cross-ISA comparison grid: one row per
	// port, cells across the four system variants.
	PortComparison = exp.PortComparison

	// FaultSweepResult is one fault-injection run's outcome and
	// recovery counters (watchdog fires, breaker trips, fallbacks).
	FaultSweepResult = exp.FaultSweepResult
	// FaultCell is one independent fault-sweep run in a grid.
	FaultCell = exp.FaultCell

	// DensityVM is one VM's outcome at one packing level.
	DensityVM = exp.DensityVM
	// DensityPoint is one packing level: k VMs on the host in one mode.
	DensityPoint = exp.DensityPoint
	// DensityResult is one mode's full packing sweep.
	DensityResult = exp.DensityResult
	// StormResult is one mode's outcome under a migration storm.
	StormResult = exp.StormResult
	// LBResult is one (mode, scenario) cell of the load-balancer
	// figure: offered/completed counts, goodput, p50/p99/p999 tail
	// latency, SLO-violation windows, transport tallies, and storm
	// counters.
	LBResult = exp.LBResult
)
