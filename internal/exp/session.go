package exp

import (
	"fmt"
	"runtime"
	"sync"

	"svtsim/internal/fault"
	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	x86port "svtsim/internal/ports/x86"

	// Every architecture port registers itself at init; the session layer
	// is the one place all frontends (CLI, daemon, bench) pass through,
	// so importing the non-default ports here makes ports.Parse see them
	// everywhere.
	_ "svtsim/internal/ports/armlike"
)

// Session carries one experiment campaign's configuration — fault spec,
// observability options, worker-pool width, host topology — as instance
// state. Every experiment is a method on Session, and a Session is the
// only way to run one.
//
// A session memoizes its fleet experiments' phase-1 VM runs across calls
// in a Memo, its own or one shared with SetMemo; SetPort, SetFaults and
// SetObs change those runs' inputs and drop it.
//
// All accessors are safe to call concurrently with experiment runs on
// the parallel pool: configuration reads and writes share one mutex.
type Session struct {
	mu      sync.Mutex
	faults  *fault.Spec
	obsOpts *obs.Options
	obsLast *obs.Plane
	workers int
	topo    host.Topology
	port    ports.Port
	memo    *Memo // phase-1 runs under port, faults and obsOpts; nil when none yet
}

// NewSession returns a session with the calibrated defaults: no faults,
// no observability, a GOMAXPROCS-wide worker pool, the paper's 2x8x2
// testbed topology.
func NewSession() *Session {
	return &Session{topo: host.DefaultTopology, port: x86port.Port()}
}

// SetPort selects the architecture backend for this session's
// subsequent experiment runs; nil restores the default x86 port. The
// port's calibrated cost model comes with it.
func (s *Session) SetPort(p ports.Port) {
	if p == nil {
		p = x86port.Port()
	}
	s.mu.Lock()
	s.port, s.memo = p, nil
	s.mu.Unlock()
}

// Port reports the session's architecture backend.
func (s *Session) Port() ports.Port {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.port
}

// SetFaults installs (or, with nil, clears) the fault spec applied to
// machines assembled by this session's subsequent experiment runs.
func (s *Session) SetFaults(spec *fault.Spec) {
	s.mu.Lock()
	s.faults, s.memo = spec, nil
	s.mu.Unlock()
}

// faultSpec reads the armed fault spec under the session lock.
func (s *Session) faultSpec() *fault.Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// SetObs arms (or, with nil, disarms) the observability plane for this
// session's subsequent experiment runs. Arming never changes simulation
// results — the plane only records, it never charges virtual time.
func (s *Session) SetObs(o *obs.Options) {
	s.mu.Lock()
	s.obsOpts, s.obsLast, s.memo = o, nil, nil
	s.mu.Unlock()
}

// LastObs returns the plane captured by the session's most recent
// experiment run, or nil when disarmed (or before any run). With
// parallel sweeps the "most recent" run is whichever cell finished
// last; arm tracing around a single experiment call when the trace must
// belong to a known run.
func (s *Session) LastObs() *obs.Plane {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obsLast
}

// SetParallelism sets this session's worker-pool width for sweeps;
// n <= 0 restores the default, GOMAXPROCS.
func (s *Session) SetParallelism(n int) {
	s.mu.Lock()
	s.workers = n
	s.mu.Unlock()
}

// Parallelism reports the effective pool width for this session's
// sweeps.
func (s *Session) Parallelism() int {
	s.mu.Lock()
	n := s.workers
	s.mu.Unlock()
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetTopology sets the host topology used by fleet-scale experiments
// (DensitySweep, Consolidation).
func (s *Session) SetTopology(t host.Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	s.topo = t
	s.mu.Unlock()
	return nil
}

// Topology reports the session's host topology.
func (s *Session) Topology() host.Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.topo
}

// SetMemo makes m the memo of the session's phase-1 runs, so sessions
// sharing m simulate each VM once between them. m must only ever serve
// sessions of one port and fault spec with no observability plane:
// its keys hold neither. Set it after SetPort, SetFaults and SetObs,
// which drop it.
func (s *Session) SetMemo(m *Memo) {
	s.mu.Lock()
	s.memo = m
	s.mu.Unlock()
}

// config is the session-wide machine configuration: the calibrated
// defaults for the session's port plus whatever fault plane and
// observability are armed.
func (s *Session) config(mode hv.Mode) machine.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.configLocked(mode)
}

// configLocked is config with s.mu held.
func (s *Session) configLocked(mode hv.Mode) machine.Config {
	cfg := machine.DefaultConfig(mode)
	if s.port != nil {
		cfg.Port = s.port
		cfg.Costs = s.port.Costs()
	}
	cfg.Faults = s.faults
	cfg.Obs = s.obsOpts
	return cfg
}

// phase1 returns config(mode) and the phase-1 memo, built on first use,
// in one s.mu section, so a memo never serves a run computed under
// another configuration.
func (s *Session) phase1(mode hv.Mode) (machine.Config, *Memo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.memo == nil {
		s.memo = new(Memo)
	}
	return s.configLocked(mode), s.memo
}

// publishObs makes p, when non-nil, the session's latest plane.
func (s *Session) publishObs(p *obs.Plane) {
	if p == nil {
		return
	}
	s.mu.Lock()
	s.obsLast = p
	s.mu.Unlock()
}

// run executes a machine, stamping any panic with the seeds needed to
// replay the failing run from its log line alone.
func (s *Session) run(m *machine.Machine) {
	defer annotatePanic(m)
	m.Run()
	s.publishObs(m.Obs)
}

func annotatePanic(m *machine.Machine) {
	r := recover()
	if r == nil {
		return
	}
	faults, fseed := "none", int64(0)
	if m.Faults != nil {
		faults = m.Cfg.Faults.String()
		fseed = m.Cfg.Faults.Seed
	}
	panic(fmt.Sprintf("exp: run failed (seed=%d faults=%q fault-seed=%d): %v",
		m.Cfg.Seed, faults, fseed, r))
}
