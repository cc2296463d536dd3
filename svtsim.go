// Package svtsim is a full-system reproduction of "Using SMT to
// Accelerate Nested Virtualization" (Vilanova, Amit, Etsion — ISCA 2019):
// a deterministic simulator of nested virtualization on an SMT core, the
// paper's SVt hardware/software co-design, its software-only prototype,
// and the complete evaluation harness that regenerates every table and
// figure of the paper.
//
// The public API exposes two layers:
//
//   - Machine construction (NewNestedMachine, DefaultConfig): assemble an
//     L0/L1/L2 stack in baseline, SW SVt or HW SVt configuration and run
//     your own guest workloads on it.
//   - Experiments (NewSession): a Session carries one campaign's
//     configuration — parallelism, faults, observability, host topology,
//     architecture port — and has one method per table/figure of the
//     paper, returning structured results, plus the paper-formatted
//     Report* renderers. It is the only way to run an experiment.
//
// See examples/ for runnable entry points and EXPERIMENTS.md for the
// paper-vs-measured record.
package svtsim

import (
	"fmt"
	"io"

	"svtsim/internal/check"
	"svtsim/internal/cost"
	"svtsim/internal/exp"
	"svtsim/internal/fault"
	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/snapshot"
	"svtsim/internal/swsvt"
)

// Mode selects the system variant under test.
type Mode = hv.Mode

// System variants.
const (
	Baseline = hv.ModeBaseline // stock nested virtualization (Algorithm 1)
	SWSVt    = hv.ModeSWSVt    // the software-only prototype (§5.2)
	HWSVt    = hv.ModeHWSVt    // the proposed hardware (§3–§4)
	// HWSVtBypass adds the paper's §3.1 future-work extension: exits owned
	// by the guest hypervisor are delivered straight to its context.
	HWSVtBypass = hv.ModeHWSVtBypass
)

// Time is virtual time in nanoseconds.
type Time = sim.Time

// Common durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Config parameterizes a machine (cost model, SW SVt wait policy, ...).
type Config = machine.Config

// CostModel is the calibrated timing model (see internal/cost).
type CostModel = cost.Model

// DefaultConfig returns the calibrated configuration for a mode.
func DefaultConfig(mode Mode) Config { return machine.DefaultConfig(mode) }

// BaselineCosts returns the cost model calibrated to the paper's Table 1.
func BaselineCosts() CostModel { return cost.Baseline() }

// Machine is an assembled simulation of the full L0/L1/L2 stack.
type Machine = machine.Machine

// IOStack is the machine's network/disk plumbing.
type IOStack = machine.IOStack

// GuestEnv is the environment a guest workload body runs in.
type GuestEnv = guest.Env

// WaitPolicy is a SW SVt channel wait mechanism (§6.1).
type WaitPolicy = swsvt.Policy

// Placement is a SW SVt thread placement (§6.1).
type Placement = swsvt.Placement

// Wait policies and placements.
const (
	PolicyMwait = swsvt.PolicyMwait
	PolicyPoll  = swsvt.PolicyPoll
	PolicyMutex = swsvt.PolicyMutex

	PlaceSMT       = swsvt.PlaceSMT
	PlaceCrossCore = swsvt.PlaceCrossCore
	PlaceCrossNUMA = swsvt.PlaceCrossNUMA
)

// NewNestedMachine assembles the full three-level stack.
func NewNestedMachine(cfg Config) *Machine { return machine.NewNested(cfg) }

// WireIO installs the network and disk substrate into cfg before machine
// construction; the returned stack is populated as the guests boot.
func WireIO(cfg *Config) *IOStack {
	return machine.WireNestedIO(cfg, machine.DefaultIOParams())
}

// --- Experiment results (see Session for the experiments) ---------------

// CPUIDResult is one Figure 6 bar (with the Table 1 breakdown attached
// for nested runs).
type CPUIDResult = exp.CPUIDResult

// IOResult is one Figure 7 measurement.
type IOResult = exp.IOResult

// MemcachedResult is one Figure 8 sweep point.
type MemcachedResult = exp.MemcachedResult

// VideoResult is one Figure 10 bar.
type VideoResult = exp.VideoResult

// TraceEntry is one recorded VM exit (observability).
type TraceEntry = hv.TraceEntry

// ChannelPoint is one §6.1 channel-study cell.
type ChannelPoint = exp.ChannelPoint

// --- Observability plane -----------------------------------------------

// ObsOptions configures the observability plane: per-track trace ring
// capacity and engine dispatch-marker sampling.
type ObsOptions = obs.Options

// ObsPlane is one run's armed plane: the virtual-time tracer plus the
// metrics registry. Export with Tracer.WriteChromeTrace (Perfetto /
// chrome://tracing JSON), Tracer.WriteSummary (top-N span table) and
// Metrics.WriteCSV / Metrics.WriteJSON.
type ObsPlane = obs.Plane

// --- Fault-injection plane ---------------------------------------------

// FaultSpec configures the deterministic fault-injection plane: a seed
// plus per-site drop/delay rules (see internal/fault for site names).
type FaultSpec = fault.Spec

// FaultSiteConfig is one fault site's injection rule.
type FaultSiteConfig = fault.SiteConfig

// Fault-injection site names.
const (
	FaultSiteSVtWakeup      = fault.SiteSVtWakeup
	FaultSiteRingPush       = fault.SiteRingPush
	FaultSiteRingPop        = fault.SiteRingPop
	FaultSiteIRQ            = fault.SiteIRQ
	FaultSiteIPI            = fault.SiteIPI
	FaultSiteVirtioComplete = fault.SiteVirtioComplete
	FaultSiteBlkComplete    = fault.SiteBlkComplete
	FaultSiteMigrateCapture = fault.SiteMigrateCapture
	FaultSiteMigrateXfer    = fault.SiteMigrateTransfer
	FaultSiteMigrateRestore = fault.SiteMigrateRestore
)

// FaultSites lists every known injection site.
func FaultSites() []string { return fault.Sites() }

// ParseFaultSpec parses the CLI fault syntax
// ("site:rate=0.1,drop;site:delay=20us") into a spec with the given seed.
func ParseFaultSpec(arg string, seed int64) (*FaultSpec, error) { return fault.ParseSpec(arg, seed) }

// FaultSweepResult is one fault-injection run's outcome and recovery
// counters (watchdog fires, breaker trips, fallbacks).
type FaultSweepResult = exp.FaultSweepResult

// FaultCell is one independent fault-sweep run in a grid.
type FaultCell = exp.FaultCell

// --- Differential check layer: cross-mode equivalence ------------------

// CheckSchedules generates and differentially checks n schedules from
// consecutive seeds starting at seed, running each under every mode and
// comparing guest-visible outcomes. Failing schedules are shrunk and
// written as replayable repro files under dir (when non-empty). It
// returns the number of inequivalent schedules found.
func CheckSchedules(w io.Writer, n int, seed int64, dir string) int {
	return check.RunBudget(w, n, seed, dir)
}

// CheckSchedulesPort is CheckSchedules on a named architecture port
// ("" or "x86" checks the default port): the oracle asserts
// mode-equivalence within that port. Ports are never compared against
// each other — they charge different costs by design.
func CheckSchedulesPort(w io.Writer, n int, seed int64, dir, port string) (int, error) {
	p, err := ports.Parse(port)
	if err != nil {
		return 0, err
	}
	return check.RunBudgetOpts(w, n, seed, dir, &check.RunOpts{Port: p}), nil
}

// ReplaySchedule decodes a schedule file (as written by CheckSchedules
// or shipped in the regression corpus) and re-runs the differential
// check on it, reporting any divergence.
func ReplaySchedule(w io.Writer, path string) error { return check.ReplayFile(w, path) }

// MigratePoint schedules one live migration inside a differential
// schedule: the VM's gang is snapshotted, digest-verified through a
// restore round trip, and moved to another core after op After, with
// the first Fails attempts forced to fail (Fails >= 3 forces an atomic
// rollback under the default attempt budget).
type MigratePoint = check.MigratePoint

// CheckMigratedSchedule generates the seeded schedule, overlays the
// given live-migration points (forcing a multi-core host if the
// generator chose a single-core run, and wrapping each After into the
// op range), and runs it through the differential oracle: the guest-
// visible outcome must be invariant to when — and whether — the VM was
// migrated or rolled back. The verdict is printed to w; a non-nil error
// reports divergence.
func CheckMigratedSchedule(w io.Writer, seed int64, pts []MigratePoint) error {
	s := check.Generate(seed)
	if s.Cores < 2 {
		s.Cores = 4
	}
	s.Migrate = nil
	for _, p := range pts {
		p.After %= len(s.Ops)
		s.Migrate = append(s.Migrate, p)
	}
	v := check.CheckSchedule(s, nil)
	fmt.Fprintln(w, v.String())
	if v.Failed() {
		return fmt.Errorf("svtsim: schedule %d not invariant under migration", seed)
	}
	return nil
}

// --- Snapshot layer: canonical machine state ---------------------------

// Snapshot is a machine's full architectural state in canonical
// serializable form: ordered named sections of flat word streams, with
// an FNV-1a digest, cheap copy-on-write clones, and incremental diff
// pricing. See internal/snapshot and DESIGN.md §13.
type Snapshot = snapshot.Snapshot

// CaptureSnapshot serializes a machine's architectural state at a
// quiescent boundary. io may be nil for machines without wired I/O.
func CaptureSnapshot(m *Machine, io *IOStack) *Snapshot { return snapshot.Capture(m, io) }

// RestoreSnapshot writes a snapshot back into a machine of identical
// configuration (the one it came from, or a freshly built twin).
func RestoreSnapshot(m *Machine, io *IOStack, snap *Snapshot) error {
	return snapshot.Restore(m, io, snap)
}

// SnapshotRoundTrip captures, restores, and re-captures, returning both
// digests; equal digests are the restore-fidelity guarantee live
// migration relies on.
func SnapshotRoundTrip(m *Machine, io *IOStack) (before, after uint64, err error) {
	return snapshot.RoundTrip(m, io)
}
