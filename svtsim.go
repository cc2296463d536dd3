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
//     renderers (Table1, Figure6, ...). It is the only way to run an
//     experiment.
//
// See examples/ for runnable entry points and EXPERIMENTS.md for the
// paper-vs-measured record.
package svtsim

import (
	"context"
	"io"

	"svtsim/internal/check"
	"svtsim/internal/cost"
	"svtsim/internal/exp"
	"svtsim/internal/fault"
	"svtsim/internal/guest"
	"svtsim/internal/host"
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

// AllModes returns the system variants in the paper's presentation
// order (Figure 6's bars). The result is a fresh slice each call —
// callers may reorder or trim it without affecting anyone else.
func AllModes() []Mode { return exp.AllModes() }

// ParseMode parses a mode name as printed by Mode.String ("baseline",
// "sw-svt", "hw-svt", "hw-svt-bypass"; "sw"/"hw"/"bypass" accepted as
// shorthand).
func ParseMode(s string) (Mode, error) { return hv.ParseMode(s) }

// ParseHostTopology parses "SxCxT" ("2x8x2") or "CxT" ("8x2", one
// socket) into a validated topology.
func ParseHostTopology(s string) (HostTopology, error) { return host.ParseTopology(s) }

// Port is an architecture backend: its calibrated cost model, exit
// vocabulary and interrupt controller (Session.SetPort).
type Port = ports.Port

// ParsePort looks a port up by registry name ("" and "x86" select the
// default VT-x/LAPIC model; "armlike" the EL2/vGIC-style one).
func ParsePort(name string) (Port, error) { return ports.Parse(name) }

// PortNames lists the registered architecture ports in sorted order
// ("armlike", "x86").
func PortNames() []string { return ports.Names() }

// LBScenarios lists the supported load-balancer scenario names in
// report order: steady, overload, burst, storm, faults.
func LBScenarios() []string { return exp.LBScenarios() }

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
	FaultSiteSVtWakeup = fault.SiteSVtWakeup
	FaultSiteIPI       = fault.SiteIPI
)

// FaultSites lists every known injection site.
func FaultSites() []string { return fault.Sites() }

// --- Differential check layer: cross-mode equivalence ------------------

// CheckSchedulesPort generates and differentially checks n schedules
// from consecutive seeds starting at seed on the given architecture
// port (nil checks the default x86 port), running each under every mode
// and comparing guest-visible outcomes; the oracle asserts
// mode-equivalence within that port. Ports are never compared against
// each other — they charge different costs by design. Failing schedules
// are shrunk and written as replayable repro files under dir (when
// non-empty). It returns the number of inequivalent schedules found.
func CheckSchedulesPort(w io.Writer, n int, seed int64, dir string, port Port) int {
	failures, _ := check.RunBudgetOpts(context.Background(), w, n, seed, dir, &check.RunOpts{Port: port}, nil)
	return failures
}

// ReplaySchedule decodes a schedule file (as written by
// CheckSchedulesPort or shipped in the regression corpus) and re-runs the differential
// check on it, on the port the file names, reporting any divergence.
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
	return check.CheckMigrated(w, seed, pts)
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

// SnapshotRoundTrip captures, restores, and re-captures, returning both
// digests; equal digests are the restore-fidelity guarantee live
// migration relies on.
func SnapshotRoundTrip(m *Machine, io *IOStack) (before, after uint64, err error) {
	return snapshot.RoundTrip(m, io)
}
